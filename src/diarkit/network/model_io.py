"""Binary model files.

Layout: magic ``XVEC``, u32 format version 3, the parameter dtype as two
ASCII bytes (``f4`` for float32, ``f8`` for float64), a u64-length-prefixed
canonical text block describing the layer graph, then one u64-length-prefixed
blob of little-endian values in that dtype per parameter (and per batch-norm
running moment), in spec order. Files of any other version are rejected.

Shapes are implied by the graph: the layer-kind table in graph.py
(LAYER_KINDS) gives every parameter's shape and every buffer, so blobs carry
no shape headers; save followed by load is bit-exact, in either dtype.
"""

from __future__ import annotations

import struct

import numpy as np

from ..binfile import BinaryReader
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
MODEL_FORMAT_VERSION = 3
# dtype record -> parameter dtype
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
            f"{_csv(ls.context)} {ls.inner_dim} {_csv(ls.inputs)} {ls.skip_from or '-'}"
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
                if len(fields) != 9:
                    raise ValueError("bad field count")
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
        fh.write(MODEL_MAGIC + struct.pack("<I", MODEL_FORMAT_VERSION) + code.encode("ascii"))
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
    reader = BinaryReader(path, MODEL_MAGIC, "model file")
    (version,) = reader.unpack("<I", "version")
    if version != MODEL_FORMAT_VERSION:
        raise reader.error(f"unsupported model format version {version}")
    code = str(reader.take(2, "dtype"), "ascii", errors="replace")
    if code not in MODEL_DTYPES:
        raise reader.error(f"unknown parameter dtype {code!r}")
    dtype = MODEL_DTYPES[code]
    (text_len,) = reader.unpack("<Q", "spec length")
    spec = spec_from_text(reader.text(text_len, "model spec block"))

    params: dict[str, dict[str, np.ndarray]] = {ls.name: {} for ls in spec.layers}
    buffers: dict[str, dict[str, np.ndarray]] = {}
    for ls in spec.layers:
        targets = [(params[ls.name], n, shape) for n, shape in param_shapes(ls).items()]
        kind_buffers = LAYER_KINDS[ls.kind].buffers
        if kind_buffers:
            buffers[ls.name] = {}
            targets += [(buffers[ls.name], n, (ls.out_dim,)) for n in kind_buffers]
        for store, aname, shape in targets:
            what = f"{ls.name}.{aname}"
            (blob_len,) = reader.unpack("<Q", f"{what} length")
            count = int(np.prod(shape))
            if blob_len != count * dtype.itemsize:
                raise reader.error(
                    f"{what} holds {blob_len} bytes, expected {count * dtype.itemsize}")
            store[aname] = reader.values("<" + code, count, what).reshape(shape).astype(dtype)
    reader.close()
    return Network(spec, params, buffers)
