"""One utterance or one conversation, smoothed in a recursion of its own:
the corpus writer's draws and AR(1) recursion for a single item, which only
the tests call. write_corpus smooths many items in each recursion and writes
the same frames (rounded to float32)."""

from diarkit.synthdata import _conversation, _Recursion, _turns, _utterance


def smooth(blocks):
    """The (speaker, frames) of (speaker, noise) blocks, in one recursion."""
    rec = _Recursion(sum(len(noise) for _, noise in blocks), blocks[0][1].shape[1])
    for spk, noise in blocks:
        rec.add(spk, noise)
    return rec.frames()


def generate_utterance(speaker, duration_s: float, seed):
    (_, frames), = smooth(_utterance(speaker, duration_s, seed))
    return frames


def generate_conversation(speakers, total_s: float, turn_range_s: tuple[float, float], seed,
                          conversation_id: str = "conv"):
    """Random no-immediate-repeat turn taking with frame-exact references.

    Turn lengths are uniform over the range on the 10 ms frame grid; a tail
    shorter than the minimum turn is absorbed into the final turn, so every
    turn admits at least one scoring segment. SAD covers the full duration.
    """
    return _conversation(conversation_id,
                         list(smooth(_turns(speakers, total_s, turn_range_s, seed))))
