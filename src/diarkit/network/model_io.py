"""Binary model files.

Layout, format 2: magic ``XVEC``, u32 format version 2, the parameter dtype
as two ASCII bytes (``f4`` for float32, ``f8`` for float64), a
u64-length-prefixed canonical text block describing the layer graph, then one
u64-length-prefixed blob of little-endian values in that dtype per parameter
(and per batch-norm running moment), in spec order. Format 1 is the same
without the dtype record; its blobs are float64.

A float64 network is written in format 1, so its file is byte for byte what
earlier versions wrote; any other network is written in format 2. Both load,
each in its own dtype. Shapes are implied by the graph: the layer-kind table
in graph.py (LAYER_KINDS) gives every parameter's shape and every buffer, so
blobs carry no shape headers; save followed by load is bit-exact. A layer
line's last column, its skip mode, must read ``sum``.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FormatError, InvalidInputError
from .graph import (
    LAYER_KINDS,
    LayerSpec,
    Network,
    NetworkSpec,
    param_shapes,
    validate_spec,
)

MODEL_MAGIC = b"XVEC"
MODEL_FORMAT_VERSION = 2
# dtype record -> parameter dtype; format 1 files are implicitly "f8"
MODEL_DTYPES = {"f4": np.dtype(np.float32), "f8": np.dtype(np.float64)}


def _csv(items) -> str:
    return ",".join(str(i) for i in items) if items else "-"


def _uncsv(text: str) -> tuple[str, ...]:
    return () if text == "-" else tuple(text.split(","))


def spec_to_text(spec: NetworkSpec) -> str:
    lines = [
        f"embedding {spec.embedding_layer}",
        f"speakers {spec.num_speakers}",
        f"taps {_csv(spec.msa_taps)}",
    ]
    for ls in spec.layers:
        lines.append(
            f"layer {ls.name} {ls.kind} {ls.in_dim} {ls.out_dim} "
            f"{_csv(ls.context)} {ls.inner_dim} {_csv(ls.inputs)} "
            f"{ls.skip_from or '-'} {ls.skip_mode}"
        )
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> NetworkSpec:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise FormatError("model spec block is incomplete")
    header: dict[str, str] = {}
    layers: list[LayerSpec] = []
    for ln in lines:
        fields = ln.split(" ")
        try:
            if fields[0] == "layer":
                if len(fields) != 10:
                    raise ValueError("bad field count")
                if fields[9] != LayerSpec.skip_mode:
                    raise ValueError(f"skip mode {fields[9]!r} is not {LayerSpec.skip_mode!r}")
                layers.append(
                    LayerSpec(
                        name=fields[1],
                        kind=fields[2],
                        in_dim=int(fields[3]),
                        out_dim=int(fields[4]),
                        context=tuple(int(c) for c in _uncsv(fields[5])),
                        inner_dim=int(fields[6]),
                        inputs=_uncsv(fields[7]),
                        skip_from="" if fields[8] == "-" else fields[8],
                    )
                )
            elif fields[0] in ("embedding", "speakers", "taps") and len(fields) == 2:
                header[fields[0]] = fields[1]
            else:
                raise ValueError("unknown record")
        except ValueError as exc:
            raise FormatError(f"bad model spec line {ln!r}: {exc}") from None
    try:
        spec = NetworkSpec(
            layers=tuple(layers),
            embedding_layer=header["embedding"],
            num_speakers=int(header["speakers"]),
            msa_taps=_uncsv(header["taps"]),
        )
    except KeyError as exc:
        raise FormatError(f"model spec block is missing the {exc.args[0]} header") from None
    try:
        validate_spec(spec)
    except Exception as exc:
        raise FormatError(f"model spec block is not a valid network: {exc}") from None
    return spec


def save_network(net: Network, path) -> None:
    code = net.dtype.str[1:]  # "<f4" -> "f4"
    if code not in MODEL_DTYPES:
        raise InvalidInputError(f"model files hold float32 or float64 parameters, not {net.dtype}")
    text = spec_to_text(net.spec).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        if code == "f8":  # format 1
            fh.write(struct.pack("<I", 1))
        else:
            fh.write(struct.pack("<I", MODEL_FORMAT_VERSION) + code.encode("ascii"))
        fh.write(struct.pack("<Q", len(text)))
        fh.write(text)
        for ls in net.spec.layers:  # params, then buffers, layer by layer
            arrays = [net.params[ls.name][n] for n in param_shapes(ls)]
            arrays += [net.buffers[ls.name][n] for n in LAYER_KINDS[ls.kind].buffers]
            for arr in arrays:
                blob = np.ascontiguousarray(arr, dtype="<" + code).tobytes()
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(f"{path}: truncated model file ({what})")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version == 1:
        code = "f8"
    elif version == MODEL_FORMAT_VERSION:
        code = take(2, "dtype").decode("ascii", errors="replace")
        if code not in MODEL_DTYPES:
            raise FormatError(f"{path}: unknown parameter dtype {code!r}")
    else:
        raise FormatError(f"{path}: unsupported model format version {version}")
    dtype = MODEL_DTYPES[code]
    (text_len,) = struct.unpack("<Q", take(8, "spec length"))
    try:
        text = take(text_len, "spec block").decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: model spec block is not UTF-8") from None
    spec = spec_from_text(text)

    params: dict[str, dict[str, np.ndarray]] = {ls.name: {} for ls in spec.layers}
    buffers: dict[str, dict[str, np.ndarray]] = {}
    for ls in spec.layers:
        targets = [(params[ls.name], n, shape) for n, shape in param_shapes(ls).items()]
        kind_buffers = LAYER_KINDS[ls.kind].buffers
        if kind_buffers:
            buffers[ls.name] = {}
            targets += [(buffers[ls.name], n, (ls.out_dim,)) for n in kind_buffers]
        for store, aname, shape in targets:
            (blob_len,) = struct.unpack("<Q", take(8, f"{ls.name}.{aname} length"))
            expected = int(np.prod(shape)) * dtype.itemsize
            if blob_len != expected:
                raise FormatError(
                    f"{path}: {ls.name}.{aname} holds {blob_len} bytes, expected {expected}"
                )
            blob = take(blob_len, f"{ls.name}.{aname}")
            arr = np.frombuffer(blob, dtype="<" + code).reshape(shape).astype(dtype)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{path}: {ls.name}.{aname} contains non-finite values")
            store[aname] = arr
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} trailing bytes after the last parameter")
    return Network(spec, params, buffers)
