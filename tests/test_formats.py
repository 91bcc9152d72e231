"""On-disk layout pins and hostile-input checks for the six binary containers.

The layout pins save each format from small fixed inputs and compare the
SHA-256 of the bytes with digests recorded from the reference writer, so any
change to a byte layout fails here first. The inputs are plain arithmetic
(no random generator), so the digests do not depend on the numpy version.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperadapt import _io
from hyperadapt.data import HyperCube, Stats, TileSet, load_cube, load_tiles, save_cube, save_tiles
from hyperadapt.decomp import CpDecomp, Tucker1Decomp, load_decomps, save_decomps
from hyperadapt.errors import DataError, FormatError, ShapeError
from hyperadapt.filteradapt import (
    INIT_POLICIES,
    AdaptedLayer,
    FilterBank,
    load_adapted,
    save_adapted,
)
from hyperadapt.nn.layers import (
    Conv2dLayer,
    CpFirstLayer,
    Linear,
    Param,
    ReduceFirstLayer,
    ScratchFirstLayer,
    TuckerFirstLayer,
)
from hyperadapt.nn.model import Model, load_model, save_model
from hyperadapt.tensor import load_tensor, save_tensor


def ramp(*shape, scale=7.0, offset=0.0):
    """Deterministic non-trivial values: a ramp folded into [-1, 1)."""
    n = int(np.prod(shape))
    return ((np.arange(n, dtype=np.float64) * 0.37 + offset) % 2.0 - 1.0).reshape(shape) / scale


def _cp_adapted(bias=True):
    return AdaptedLayer(kind="cp", spectral=ramp(2, 4, 2), x=ramp(2, 3, 2, offset=0.1),
                        y=ramp(2, 3, 2, offset=0.2), bias=ramp(2, offset=0.3) if bias else None,
                        init="replicate", seed=11)


def _tucker_adapted(bias=False):
    return AdaptedLayer(kind="tucker", spectral=ramp(2, 4, 2), core=ramp(2, 2, 3, 3, offset=0.4),
                        bias=ramp(2, offset=0.5) if bias else None, init="random", seed=3)


def _model(first, c_out=2):
    mid = Conv2dLayer(Param("mid.weight", ramp(2 * c_out, c_out, 3, 3, offset=0.6), False))
    head = Linear(Param("head.weight", ramp(3, 2 * c_out, offset=0.7), True),
                  Param("head.bias", ramp(3, offset=0.8), True))
    return Model(first, mid, (1, 1), head)


def _reduce_first():
    rgb = FilterBank(ramp(2, 3, 3, 3, offset=0.9), ramp(2, offset=1.0))
    return ReduceFirstLayer(ramp(5, 4, 1, 1), ramp(5, offset=1.1), ramp(3, 5, 1, 1, offset=1.2),
                            ramp(3, offset=1.3), rgb)


def _decomps(kind):
    if kind == "cp":
        return [CpDecomp(spectral=ramp(3, 2, offset=o), x=ramp(3, 2, offset=o + 0.1),
                         y=ramp(3, 2, offset=o + 0.2), relative_error=0.01 * o)
                for o in range(2)]
    return [Tucker1Decomp(core=ramp(2, 3, 3, offset=o), spectral=ramp(3, 2, offset=o + 0.3),
                          relative_error=0.5 / 2**o) for o in range(2)]


def _tiles(stats):
    st = Stats(ramp(4, offset=0.1), ramp(4, offset=0.2) + 2.0) if stats else None
    return TileSet(ramp(3, 4, 2, 2), np.array([0, 2, 1]), split="test" if stats else "train",
                   stats=st)


def _cube(labels):
    data = ramp(3, 4, 5).astype(np.float32).astype(np.float64)
    lab = (np.arange(20).reshape(4, 5) % 4) - 1 if labels else None
    return HyperCube(data, lab)


def _model_case(build, meta=None):
    return (lambda p: save_model(build(), p, meta=meta),
            lambda p: [q.value for q in load_model(p)[0].params()],
            lambda: [q.value for q in build().params()])


# name -> (save(path), load(path) -> arrays to compare, expected arrays)
CASES = {
    "tns1": (lambda p: save_tensor(ramp(2, 3, 4), p),
             lambda p: [load_tensor(p)], lambda: [ramp(2, 3, 4)]),
    "dcp1_cp": (lambda p: save_decomps(p, _decomps("cp")),
                lambda p: [a for d in load_decomps(p)[1] for a in (d.spectral, d.x, d.y)],
                lambda: [a for d in _decomps("cp") for a in (d.spectral, d.x, d.y)]),
    "dcp1_tucker": (lambda p: save_decomps(p, _decomps("tucker")),
                    lambda p: [a for d in load_decomps(p)[1] for a in (d.spectral, d.core)]
                    + [load_decomps(p)[2]],
                    lambda: [a for d in _decomps("tucker") for a in (d.spectral, d.core)]
                    + [np.array([0.5, 0.25])]),
    "adp1_cp_bias": (lambda p: save_adapted(p, _cp_adapted()),
                     lambda p: [getattr(load_adapted(p), k) for k in ("spectral", "x", "y", "bias")],
                     lambda: [getattr(_cp_adapted(), k) for k in ("spectral", "x", "y", "bias")]),
    "adp1_tucker_nobias": (lambda p: save_adapted(p, _tucker_adapted()),
                           lambda p: [load_adapted(p).spectral, load_adapted(p).core],
                           lambda: [_tucker_adapted().spectral, _tucker_adapted().core]),
    "mdl1_cp_bias": _model_case(lambda: _model(CpFirstLayer(_cp_adapted())),
                                {"rank": "2", "seed": "0"}),
    "mdl1_tucker_nobias": _model_case(lambda: _model(TuckerFirstLayer(_tucker_adapted()))),
    "mdl1_reduce": _model_case(lambda: _model(_reduce_first())),
    "mdl1_scratch": _model_case(lambda: _model(ScratchFirstLayer(ramp(2, 4, 3, 3), None,
                                                                 stride=2, padding=1))),
    "hsc1_labels": (lambda p: save_cube(_cube(True), p),
                    lambda p: [load_cube(p).data, load_cube(p).labels],
                    lambda: [_cube(True).data, _cube(True).labels]),
    "hsc1_nolabels": (lambda p: save_cube(_cube(False), p),
                      lambda p: [load_cube(p).data], lambda: [_cube(False).data]),
    "tls1_stats": (lambda p: save_tiles(_tiles(True), p),
                   lambda p: [load_tiles(p).tiles, load_tiles(p).labels,
                              load_tiles(p).stats.mean, load_tiles(p).stats.std],
                   lambda: [_tiles(True).tiles, _tiles(True).labels,
                            _tiles(True).stats.mean, _tiles(True).stats.std]),
    "tls1_nostats": (lambda p: save_tiles(_tiles(False), p),
                     lambda p: [load_tiles(p).tiles, load_tiles(p).labels],
                     lambda: [_tiles(False).tiles, _tiles(False).labels]),
}

# Recorded from the writer these pins guard; regenerate only for a deliberate layout change.
DIGESTS = {
    "adp1_cp_bias": "2f22dfa6d09fe4bdf0c71df934ff2e98f93f46e78c5a2fdda6b36260ce6ef338",
    "adp1_tucker_nobias": "21a83a627d6092a14c8769518424a127fe607dfc2787b0c7bcc6407173b89f65",
    "dcp1_cp": "d69e595c234d3379c5a5b049fe14ef59dae7370e39b34882a907b39f597680e7",
    "dcp1_tucker": "18b11c37023b1249de69b7b57cba3c929c183f5a125827ba7a3c8993bfa443e8",
    "hsc1_labels": "1d13faaaaad3c7c9ff182e6fc8f11dad4255c6a7848e9575f7b3ea7050e2f8d3",
    "hsc1_nolabels": "09c4f49890a7fb30043dc23e362823352d581f15e00ffd05a84c804f572d8127",
    "mdl1_cp_bias": "1bd580bcc5a95afcfe6df48385ec275dbc5c2bbb22467b7e563da0be1a35fdd0",
    "mdl1_reduce": "3cc0e2a205a212e27cbae89ecb35d59cef6bcd023fa8a150521c0769afc2f299",
    "mdl1_scratch": "d5bd8e535cf114857c7acacce036b79e790b0be3c738383ae0cbcf4c91239308",
    "mdl1_tucker_nobias": "b11ad9e9c91aad3323da2a928d87719a66467ab501a41e4efd7c853c6021b23c",
    "tls1_nostats": "82c3e35195a7a7e664b4b2cd448acaa7df460e78596db36fba95c2a398752cc5",
    "tls1_stats": "da14580d2765831126e1ed99d2f180a023af44392eaa537d75c8968edba4b4e4",
    "tns1": "78acfa3bfa1e75cbf186c3002a54022095a5a026b0059f1bce0586bab82ed136",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_pinned(tmp_path, name):
    save, load, expected = CASES[name]
    path = str(tmp_path / name)
    save(path)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == DIGESTS[name]
    got = load(path)
    want = expected()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# --------------------------------------------------------- hostile inputs

LOADERS = {"tns1": load_tensor, "dcp1": load_decomps, "adp1": load_adapted,
           "mdl1": load_model, "hsc1": load_cube, "tls1": load_tiles}
NAMED = (FormatError, ShapeError, DataError)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of every pinned case, written once per module."""
    root = tmp_path_factory.mktemp("pristine")
    out = {}
    for name, (save, _, _) in CASES.items():
        path = str(root / name)
        save(path)
        with open(path, "rb") as f:
            out[name] = f.read()
    return out


def _load_bytes(tmp_path, name, raw):
    path = tmp_path / f"{name}.bin"
    path.write_bytes(raw)
    return LOADERS[name.split("_")[0]](str(path))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(CASES)), mutation=st.sampled_from(["cut", "flip", "append"]),
       where=st.integers(min_value=0), bit=st.integers(0, 7), extra=st.binary(min_size=1))
def test_mutated_files_load_or_raise_named_errors(tmp_path, pristine, name, mutation,
                                                  where, bit, extra):
    raw = pristine[name]
    if mutation == "cut":
        bad = raw[:where % len(raw)]
    elif mutation == "flip":
        pos = where % len(raw)
        bad = raw[:pos] + bytes([raw[pos] ^ (1 << bit)]) + raw[pos + 1:]
    else:
        bad = raw + extra
    try:
        _load_bytes(tmp_path, name, bad)
    except NAMED:
        pass


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_truncation_is_a_named_error(tmp_path, name, pristine):
    raw = pristine[name]
    for n in range(len(raw)):
        if name == "hsc1_labels" and n == len(raw) - 4 * 4 * 5:
            continue  # exactly the cube without its optional label plane: valid
        with pytest.raises(FormatError):
            _load_bytes(tmp_path, name, raw[:n])


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_appended_byte_is_rejected(tmp_path, name, pristine):
    with pytest.raises(FormatError):
        _load_bytes(tmp_path, name, pristine[name] + b"\x00")


def test_oversized_header_rejected_before_sized_read(tmp_path, monkeypatch):
    path = tmp_path / "huge.tns"
    path.write_bytes(b"TNS1" + struct.pack("<III", 2, 40000, 40000) + bytes(16))
    assert path.stat().st_size == 32
    requested = []
    real = _io.read_exact

    def spy(f, n, what):
        requested.append(n)
        return real(f, n, what)

    monkeypatch.setattr(_io, "read_exact", spy)
    with pytest.raises(FormatError, match="tensor data"):
        load_tensor(str(path))
    assert max(requested) <= 32


@pytest.mark.parametrize("extents", [(0,) * 70, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
def test_zero_size_block_numpy_cannot_hold_is_a_format_error(tmp_path, extents):
    # MDL1 with empty metadata and one block "a" whose declared shape holds no data.
    raw = (b"MDL1" + struct.pack("<II", 0, 1) + struct.pack("<H", 1) + b"a"
           + struct.pack(f"<BI{len(extents)}I", 0, len(extents), *extents))
    with pytest.raises(FormatError, match="block a"):
        _load_bytes(tmp_path, "mdl1", raw)


def test_non_utf8_metadata_is_a_format_error(tmp_path, pristine):
    raw = bytearray(pristine["mdl1_cp_bias"])
    raw[8] = 0xFF  # first metadata byte, after magic and u32 length
    with pytest.raises(FormatError, match="metadata"):
        _load_bytes(tmp_path, "mdl1", bytes(raw))


def test_unknown_init_tag_rejected(tmp_path, pristine):
    raw = bytearray(pristine["adp1_cp_bias"])
    raw[-9] = len(INIT_POLICIES)  # u8 init tag sits just before the u64 seed
    with pytest.raises(FormatError, match="init tag"):
        _load_bytes(tmp_path, "adp1", bytes(raw))


def test_unknown_init_policy_not_saved(tmp_path):
    layer = _cp_adapted()
    layer.init = "bogus"
    with pytest.raises(ShapeError):
        save_adapted(str(tmp_path / "l.adp"), layer)
    assert not (tmp_path / "l.adp").exists()


# name -> (byte offset, value written there, field the error must name)
BAD_FLAGS = {
    "dcp1_cp": (4, 2, "kind tag"),  # low byte of the u32 kind after the magic
    "tls1_stats": (5, 2, "stats flag"),  # after the magic and the u8 split tag
    "adp1_cp_bias": (28, 2, "bias flag"),  # after the magic and six u32 header fields
}


@pytest.mark.parametrize("name", sorted(BAD_FLAGS))
def test_out_of_range_tag_is_a_format_error(tmp_path, pristine, name):
    offset, value, field = BAD_FLAGS[name]
    raw = bytearray(pristine[name])
    raw[offset] = value
    with pytest.raises(FormatError, match=field):
        _load_bytes(tmp_path, name, bytes(raw))


@pytest.mark.parametrize("mix", ["kinds", "ranks", "kernels"])
def test_mixed_decomposition_list_is_not_saved(tmp_path, mix):
    decomps = _decomps("cp")
    if mix == "kinds":
        decomps[1] = _decomps("tucker")[1]
    elif mix == "ranks":
        d = decomps[1]
        decomps[1] = CpDecomp(spectral=d.spectral[:, :1], x=d.x[:, :1], y=d.y[:, :1],
                              relative_error=0.0)
    else:
        decomps[1].x = ramp(4, 2)
    with pytest.raises(ShapeError, match="decomposition 1"):
        save_decomps(str(tmp_path / "d.dcp"), decomps)
    assert not (tmp_path / "d.dcp").exists()


def test_failed_atomic_write_keeps_old_bytes_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "t.bin"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(_io.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        _io.atomic_write_bytes(str(target), b"new")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]


# Each mutation leaves every block readable but makes two of them disagree.
MISMATCHES = {
    "cp_x_rank": (lambda: CpFirstLayer(_cp_adapted()), "first.x", (2, 3, 3)),
    "cp_y_filters": (lambda: CpFirstLayer(_cp_adapted()), "first.y", (3, 3, 2)),
    "cp_bias_length": (lambda: CpFirstLayer(_cp_adapted()), "first.bias", (3,)),
    "tucker_core_rank": (lambda: TuckerFirstLayer(_tucker_adapted()), "first.core", (2, 1, 3, 3)),
    "reduce_w2_width": (_reduce_first, "first.w2", (3, 4, 1, 1)),
    "scratch_bias": (lambda: ScratchFirstLayer(ramp(2, 4, 3, 3), ramp(2)), "first.bias", (5,)),
    "mid_channels": (lambda: CpFirstLayer(_cp_adapted()), "mid.weight", (4, 3, 3, 3)),
    "head_features": (lambda: CpFirstLayer(_cp_adapted()), "head.weight", (3, 5)),
    "head_bias": (lambda: CpFirstLayer(_cp_adapted()), "head.bias", (2,)),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_load_model_cross_checks_block_shapes(tmp_path, case):
    build, block, shape = MISMATCHES[case]
    model = _model(build())
    model.named_params()[block].value = np.zeros(shape)
    path = str(tmp_path / "m.mdl1")
    save_model(model, path)
    with pytest.raises(ShapeError):
        load_model(path)


def test_unused_block_is_a_format_error(tmp_path, pristine):
    raw = pristine["mdl1_cp_bias"]
    at = 8 + struct.unpack_from("<I", raw, 4)[0]  # the block count, after the metadata text
    count = struct.unpack_from("<I", raw, at)[0]
    extra = (struct.pack("<H", 12) + b"first.weight" + struct.pack("<BII", 1, 1, 2)
             + struct.pack("<2d", 0.5, -0.5))
    bad = raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + extra
    with pytest.raises(FormatError, match="first.weight"):
        _load_bytes(tmp_path, "mdl1", bad)


def test_bad_metadata_integer_is_a_format_error(tmp_path, pristine):
    raw = pristine["mdl1_cp_bias"].replace(b"stride=1", b"stride=x")
    with pytest.raises(FormatError, match="stride"):
        _load_bytes(tmp_path, "mdl1", raw)


def test_trainable_flag_must_match_the_architecture(tmp_path, pristine, capsys):
    from hyperadapt.cli import main

    raw = bytearray(pristine["mdl1_cp_bias"])
    raw[raw.index(b"\x07\x00first.x") + 9] = 1  # u8 flag after the u16 length and the name
    with pytest.raises(FormatError, match="first.x"):
        _load_bytes(tmp_path, "mdl1", bytes(raw))
    out_dir = tmp_path / "imgs"
    assert main(["export-filters", "--model", str(tmp_path / "mdl1.bin"),
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "first.x" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("geometry", [{"stride": (2, 1)}, {"padding": (1, 0)}])
def test_non_square_first_layer_is_not_saved(tmp_path, geometry):
    model = _model(ScratchFirstLayer(ramp(2, 4, 3, 3), None, **geometry))
    with pytest.raises(ShapeError, match=next(iter(geometry))):
        save_model(model, str(tmp_path / "m.mdl1"))
    assert not (tmp_path / "m.mdl1").exists()


def test_caller_metadata_cannot_change_the_architecture_keys(tmp_path):
    path = str(tmp_path / "m.mdl1")
    meta = {"stride": "3", "padding": "2", "pool_h": "4", "method": "scratch", "rank": "2"}
    save_model(_model(CpFirstLayer(_cp_adapted())), path, meta=meta)
    model, loaded = load_model(path)
    assert (model.first.stride, model.first.padding, model.pool) == (1, 0, (1, 1))
    assert loaded == {"classes": "3", "method": "cp", "padding": "0", "pool_h": "1",
                      "pool_w": "1", "rank": "2", "stride": "1"}
    again = str(tmp_path / "again.mdl1")
    save_model(model, again, loaded)
    with open(path, "rb") as f, open(again, "rb") as g:
        assert f.read() == g.read()


def test_cli_returns_1_on_corrupted_inputs(tmp_path, pristine):
    from hyperadapt.cli import main

    bank = tmp_path / "bank.tns"
    bank.write_bytes(pristine["tns1"][:-3])
    assert main(["decompose", "--bank", str(bank), "--kind", "cp", "--rank", "1",
                 "--out", str(tmp_path / "d.dcp")]) == 1
    dcp = tmp_path / "d.dcp"
    dcp.write_bytes(pristine["dcp1_cp"] + b"\x00")
    assert main(["adapt", "--decomp", str(dcp), "--channels", "8",
                 "--out", str(tmp_path / "a.adp")]) == 1
    tiles = tmp_path / "t.tls"
    raw = bytearray(pristine["tls1_stats"])
    raw[4] = 7  # split tag
    tiles.write_bytes(bytes(raw))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"train_tiles = {tiles}\ntest_tiles = {tiles}\nepochs = 1\n"
                   f"out_model = {tmp_path / 'm.mdl1'}\nout_log = {tmp_path / 'log.csv'}\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert not (tmp_path / "a.adp").exists()
    assert not (tmp_path / "m.mdl1").exists()
