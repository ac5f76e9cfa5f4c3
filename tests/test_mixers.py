import numpy as np
import pytest

from skattn import (ACTIVATIONS, KINDS, AttentionMaps, ConfigError, MacCounter, MixerConfig, Rng,
                    ShapeError, Tape, Tensor, backward, build_mixer, count_parameters, grad_check,
                    mixer_properties)
from skattn import tensor as tz
from oracles import brute_conv2d, naive_cska, naive_mhsa
from test_tensor import composed_attention


def attention_map(mixer, x):
    """The post-activation weights [B, H, Nq, Nk] of one forward of `mixer`."""
    with AttentionMaps() as maps:
        mixer(x)
    (attn,) = maps
    return attn


def make(kind, dim=8, heads=2, tokens=16, seed=0, **kw):
    grid = kw.pop("grid", None)
    if grid is None and kind in ("cska", "sepconv"):
        side = int(round(tokens ** 0.5))
        grid = (side, tokens // side)
    cfg = MixerConfig(kind=kind, dim=dim, heads=heads, tokens=tokens, grid=grid, **kw)
    return build_mixer(cfg, Rng(seed)), cfg


class TestShapeContract:
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    def test_preserves_shape(self, kind):
        mixer, cfg = make(kind)
        x = Tensor(Rng(1).normal((3, cfg.total_tokens, cfg.dim)))
        assert mixer(x).shape == x.shape

    def test_ska_token_mismatch_is_hard_error(self):
        mixer, _ = make("ska", tokens=16)
        with pytest.raises(ShapeError, match="16 tokens"):
            mixer(Tensor(Rng(0).normal((1, 9, 8))))

    def test_cska_token_mismatch_is_hard_error(self):
        mixer, _ = make("cska", tokens=16)
        with pytest.raises(ShapeError):
            mixer(Tensor(Rng(0).normal((1, 9, 8))))

    def test_sepconv_token_mismatch_is_hard_error(self):
        mixer, _ = make("sepconv", tokens=16)
        with pytest.raises(ShapeError, match="sepconv built for a 4x4 grid but input carries 9 tokens"):
            mixer(Tensor(Rng(0).normal((1, 9, 8))))

    def test_mhsa_is_length_flexible(self):
        mixer, _ = make("mhsa")
        for n in (1, 5, 16):
            assert mixer(Tensor(Rng(0).normal((2, n, 8)))).shape == (2, n, 8)


class TestMhsa:
    def test_singleton_sequence_reduces_to_value_path(self):
        mixer, _ = make("mhsa", qkv_bias=False)
        x = Tensor(Rng(5).normal((2, 1, 8)))
        want = x.data @ mixer.wv.data @ mixer.wo.data
        got = mixer(x).data
        assert np.abs(got - want).max() < 1e-12

    def test_permutation_equivariance(self):
        mixer, _ = make("mhsa", tokens=0)
        x = Rng(6).normal((1, 10, 8))
        perm = Rng(7).permutation(10)
        base = mixer(Tensor(x)).data
        permuted = mixer(Tensor(x[:, perm])).data
        assert np.abs(permuted - base[:, perm]).max() < 1e-12

    @pytest.mark.parametrize("scaled", [True, False])
    def test_matches_naive_loop_oracle(self, scaled):
        mixer, cfg = make("mhsa", dim=4, heads=2, tokens=0, qkv_bias=False, scaled=scaled,
                          seed=0)
        x = Rng(1).normal((2, 3, 4))
        want = naive_mhsa(x, mixer.wq.data, mixer.wk.data, mixer.wv.data, mixer.wo.data,
                          heads=2, scaled=scaled)
        got = mixer(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-10


class TestSka:
    def test_zero_key_averages_value_rows(self):
        mixer, _ = make("ska", qkv_bias=False)
        mixer.key.data[:] = 0.0
        mixer.wv.data = np.eye(8)
        mixer.wo.data = np.eye(8)
        x = Rng(8).normal((2, 16, 8))
        got = mixer(Tensor(x)).data
        want = np.repeat(x.mean(axis=1, keepdims=True), 16, axis=1)
        assert np.abs(got - want).max() < 1e-12

    def test_equals_mhsa_when_key_frozen_to_dynamic_key(self):
        # shared root seed: wq/wv/wo identical across the two mixers
        mhsa, _ = make("mhsa", dim=8, heads=2, tokens=16, seed=3, qkv_bias=False)
        ska, _ = make("ska", dim=8, heads=2, tokens=16, seed=3, qkv_bias=False)
        assert np.array_equal(mhsa.wq.data, ska.wq.data)
        x0 = Rng(4).normal((1, 16, 8))
        k = (x0[0] @ mhsa.wk.data).reshape(16, 2, 4).transpose(1, 0, 2)  # [H, N, d_h]
        ska.key.data = k.copy()
        diff = np.abs(ska(Tensor(x0)).data - mhsa(Tensor(x0)).data).max()
        assert diff < 1e-10
        # the equivalence is input-specific: a different input must not match
        x1 = Rng(5).normal((1, 16, 8))
        assert np.abs(ska(Tensor(x1)).data - mhsa(Tensor(x1)).data).max() > 1e-3

    def test_not_permutation_equivariant(self):
        mixer, _ = make("ska", seed=0)
        x = Rng(0).normal((1, 16, 8))
        perm = Rng(1).permutation(16)
        base = mixer(Tensor(x)).data
        permuted = mixer(Tensor(x[:, perm])).data
        assert np.abs(permuted - base[:, perm]).max() > 1e-3

    def test_cls_token_key_has_extra_row(self):
        mixer, cfg = make("ska", tokens=16, cls_token=True)
        assert mixer.key.shape == (2, 17, 4)
        assert mixer.key.data.std() > 0.5  # a unit-normal draw, CLS row included
        out = mixer(Tensor(Rng(0).normal((1, 17, 8))))
        assert out.shape == (1, 17, 8)


class TestCska:
    def test_kernel_one_equals_ska_under_weight_transport(self):
        for seed in range(3):
            cska, cfg = make("cska", dim=8, heads=2, tokens=16, seed=seed,
                             qkv_bias=False, kernel=1)
            ska, _ = make("ska", dim=8, heads=2, tokens=16, seed=seed, qkv_bias=False)
            # key[h, t, c] := conv weight[h*N + t, c, 0, 0]
            ska.key.data = cska.conv_w.data[:, :, 0, 0].reshape(2, 16, 4).copy()
            x = Rng(seed + 100).normal((2, 16, 8))
            diff = np.abs(cska(Tensor(x)).data - ska(Tensor(x)).data).max()
            assert diff < 1e-10, (seed, diff)

    def test_zero_conv_averages_value_rows(self):
        mixer, _ = make("cska", qkv_bias=False)
        mixer.conv_w.data[:] = 0.0
        mixer.wv.data = np.eye(8)
        mixer.wo.data = np.eye(8)
        x = Rng(9).normal((2, 16, 8))
        got = mixer(Tensor(x)).data
        want = np.repeat(x.mean(axis=1, keepdims=True), 16, axis=1)
        assert np.abs(got - want).max() < 1e-12

    def test_matches_brute_force_window_oracle(self):
        mixer, cfg = make("cska", dim=2, heads=1, tokens=4, grid=(2, 2), seed=0,
                          qkv_bias=False)
        x = Rng(1).normal((1, 4, 2))
        want = naive_cska(x, mixer.wq.data, mixer.wv.data, mixer.wo.data,
                          mixer.conv_w.data, heads=1, grid=(2, 2), kernel=3)
        got = mixer(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-10

    def test_matches_brute_force_larger(self):
        mixer, cfg = make("cska", dim=6, heads=3, tokens=12, grid=(3, 4), seed=2,
                          qkv_bias=False)
        x = Rng(3).normal((2, 12, 6))
        want = naive_cska(x, mixer.wq.data, mixer.wv.data, mixer.wo.data,
                          mixer.conv_w.data, heads=3, grid=(3, 4), kernel=3)
        got = mixer(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-10

    def test_cls_path_matches_brute_force(self):
        mixer, _ = make("cska", dim=6, heads=3, tokens=12, grid=(3, 4), seed=4,
                        qkv_bias=False, cls_token=True)
        x = Rng(5).normal((2, 13, 6))
        want = naive_cska(x, mixer.wq.data, mixer.wv.data, mixer.wo.data,
                          mixer.conv_w.data, heads=3, grid=(3, 4), kernel=3,
                          cls_key=mixer.cls_key.data)
        got = mixer(Tensor(x)).data
        assert np.abs(got - want).max() < 1e-10

    def test_not_permutation_equivariant(self):
        mixer, _ = make("cska", seed=0)
        x = Rng(0).normal((1, 16, 8))
        perm = Rng(1).permutation(16)
        base = mixer(Tensor(x)).data
        permuted = mixer(Tensor(x[:, perm])).data
        assert np.abs(permuted - base[:, perm]).max() > 1e-3

    def test_cls_token_rows_are_stochastic(self):
        mixer, cfg = make("cska", tokens=16, cls_token=True)
        x = Tensor(Rng(2).normal((1, 17, 8)))
        attn = attention_map(mixer, x)
        assert attn.shape == (1, 2, 17, 17)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_cls_path_gradients(self):
        # exercises the slice/concat/cls-key assembly in backward mode
        from skattn import grad_check
        mixer, cfg = make("cska", dim=8, heads=2, tokens=4, grid=(2, 2), cls_token=True)
        x = Tensor(Rng(1).normal((1, 5, 8)))
        w = Rng(2).normal((1, 5, 8))
        rows = grad_check(lambda: (mixer(x) * w).sum(), mixer.named_parameters(),
                          tolerance=1e-5)
        assert {r.name for r in rows} >= {"cls_key", "conv_w"}
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            MixerConfig(kind="cska", dim=8, heads=2, tokens=16, grid=(4, 4), kernel=2)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            MixerConfig(kind="cska", dim=8, heads=2, tokens=16, grid=(3, 4))

    @pytest.mark.parametrize("kind", KINDS)
    def test_grid_checked_for_every_kind(self, kind):
        assert MixerConfig(kind=kind, dim=8, heads=2, tokens=16, grid=[2, 8]).grid == (2, 8)
        with pytest.raises(ConfigError, match="grid 3x3 does not match 16 tokens"):
            MixerConfig(kind=kind, dim=8, heads=2, tokens=16, grid=(3, 3))
        with pytest.raises(ConfigError):  # the grid does not stand in for the token count
            MixerConfig(kind=kind, dim=8, heads=2, grid=(4, 4))


class TestMixerConfig:
    @pytest.mark.parametrize("fields,message", [
        (dict(kind="glu"), "unknown mixer kind 'glu'"),
        (dict(dim=0), "dim and heads must be positive"),
        (dict(heads=0), "dim and heads must be positive"),
        (dict(dropout=1.0), r"dropout must be in \[0, 1\)"),
        (dict(dropout=-0.1), r"dropout must be in \[0, 1\)"),
        (dict(kind="cska", grid=None), r"cska requires a \(grid_h, grid_w\) token grid"),
        (dict(kind="sepconv", grid=None), r"sepconv requires a \(grid_h, grid_w\) token grid"),
        # a negative pair holds the tokens by product alone
        (dict(kind="sepconv", grid=(-4, -4)), "grid extents must be >= 1, got -4x-4"),
    ], ids=["kind", "dim", "heads", "dropout_1", "dropout_negative", "cska_grid",
            "sepconv_grid", "negative_grid"])
    def test_invalid_field_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            MixerConfig(**{**dict(kind="ska", dim=8, heads=2, tokens=16, grid=(4, 4)), **fields})


class TestSepConv:
    def test_identity_composition(self):
        mixer, _ = make("sepconv", qkv_bias=False)
        mixer.pw1.data = np.eye(8)
        mixer.pw2.data = np.eye(8)
        mixer.dw.data[:] = 0.0
        mixer.dw.data[:, 0, 1, 1] = 1.0
        x = Rng(10).normal((2, 16, 8))
        assert np.abs(mixer(Tensor(x)).data - x).max() < 1e-14

    def test_constant_plane_border_deficit(self):
        # depthwise stage on a constant plane: interior windows see 9 cells,
        # edges 6, corners 4; verified against the brute-force conv oracle
        mixer, cfg = make("sepconv", dim=4, heads=1, tokens=16, qkv_bias=False)
        x = np.ones((1, 16, 4))
        h = x @ mixer.pw1.data
        img = h.transpose(0, 2, 1).reshape(1, 4, 4, 4)
        want_img = brute_conv2d(img, mixer.dw.data, padding=1, groups=4)
        interior = want_img[0, :, 1:3, 1:3]
        assert np.abs(interior - interior[:, :1, :1]).max() < 1e-12  # constant inside
        got = mixer(Tensor(x)).data
        want = (want_img.reshape(1, 4, 16).transpose(0, 2, 1)) @ mixer.pw2.data
        assert np.abs(got - want).max() < 1e-12
        # border rows genuinely differ from the interior (zero-padding deficit)
        assert np.abs(got[0, 0] - got[0, 5]).max() > 1e-6

    def test_parameter_count_formula(self):
        mixer, _ = make("sepconv", dim=64, heads=1, tokens=16, qkv_bias=False)
        _, total = count_parameters(mixer)
        assert total == 9 * 64 + 2 * 64 * 64 == 8768


class TestProperties:
    def test_descriptor_table(self):
        assert mixer_properties("mhsa").dynamic_weights == 2
        assert mixer_properties("ska").dynamic_weights == 1
        assert mixer_properties("ska").weight_sharing == "none"
        assert mixer_properties("cska").dynamic_weights == 1
        assert mixer_properties("cska").weight_sharing == "spatially-global"
        assert mixer_properties("sepconv").dynamic_weights == 0
        assert mixer_properties("sepconv").weight_sharing == "spatially-global"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            mixer_properties("glu")


class TestAttentionTrace:
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    def test_rows_sum_to_one(self, kind):
        mixer, cfg = make(kind)
        x = Tensor(Rng(11).normal((2, cfg.total_tokens, cfg.dim)))
        attn = attention_map(mixer, x)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.abs(attn.mean(axis=1).sum(axis=-1) - 1.0).max() < 1e-12

    def test_zero_key_uniform_map(self):
        mixer, _ = make("ska")
        mixer.key.data[:] = 0.0
        attn = attention_map(mixer, Tensor(Rng(12).normal((1, 16, 8))))
        assert np.abs(attn - 1.0 / 16).max() < 1e-15

    def test_head_average_of_identical_heads(self):
        mixer, _ = make("ska", heads=2)
        # make both heads identical by duplicating the key and wq columns
        mixer.key.data[1] = mixer.key.data[0]
        mixer.wq.data[:, 4:] = mixer.wq.data[:, :4]
        attn = attention_map(mixer, Tensor(Rng(13).normal((1, 16, 8))))
        assert np.abs(attn[:, 0] - attn[:, 1]).max() < 1e-12
        assert np.abs(attn.mean(axis=1) - attn[:, 0]).max() < 1e-12

    def test_capture_does_not_alter_forward(self):
        mixer, _ = make("cska")
        x = Tensor(Rng(14).normal((1, 16, 8)))
        plain = mixer(x).data
        with AttentionMaps() as maps:
            traced = mixer(x).data
        assert len(maps) == 1 and np.array_equal(plain, traced)

    def test_sepconv_unsupported(self):
        # sepconv has no attention map, so a recorder receives none
        mixer, _ = make("sepconv")
        with AttentionMaps() as maps:
            mixer(Tensor(Rng(0).normal((1, 16, 8))))
        assert maps == []


def _forward_and_grads(mixer, x, w):
    with Tape() as tape, AttentionMaps() as maps:
        out = mixer(x)
        loss = (out * w).sum()
    grads = backward(tape, loss)
    return out.data, maps, {p.name: grads[p.tensor] for p in mixer.named_parameters()}


def _counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)
    return wrapped


class TestFusedAttention:
    """Every attention mixer, under every activation, through the fused
    entry against the composed chain (`composed_attention`). Under softmax
    the outputs and maps equal the chain's bit for bit. The ablation
    activations' agree to 1e-12 relative to the largest value compared: the
    fused entry sums starrelu's scalar gradients over the batch rows first."""

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    @pytest.mark.parametrize("cls_token", [False, True])
    @pytest.mark.parametrize("scaled", [True, False])
    def test_matches_composed_chain(self, kind, cls_token, scaled, monkeypatch):
        fused = tz.attention
        for activation in ACTIVATIONS:
            mixer, cfg = make(kind, tokens=16, cls_token=cls_token, scaled=scaled, seed=7,
                              activation=activation)
            x = Tensor(Rng(8).normal((2, cfg.total_tokens, cfg.dim)))
            w = Rng(9).normal((2, cfg.total_tokens, cfg.dim))
            calls = []
            monkeypatch.setattr(tz, "attention", _counting(fused, calls))
            out, maps, grads = _forward_and_grads(mixer, x, w)
            monkeypatch.setattr(tz, "attention", _counting(composed_attention, calls))
            want_out, want_maps, want_grads = _forward_and_grads(mixer, x, w)
            assert calls == [fused, composed_attention]
            assert len(maps) == len(want_maps) == 1 and grads.keys() == want_grads.keys()
            if activation == "softmax":
                assert np.array_equal(out, want_out) and np.array_equal(maps[0], want_maps[0])
                for name, g in grads.items():
                    assert np.abs(g - want_grads[name]).max() <= 1e-12, name
                continue
            for name, got, want in [("out", out, want_out), ("map", maps[0], want_maps[0])] + [
                    (name, grads[name], want_grads[name]) for name in want_grads]:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (activation, name)

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    def test_mac_count_equals_chain(self, kind, monkeypatch):
        fused = tz.attention
        for activation in ACTIVATIONS:
            for cls_token in (False, True):
                mixer, cfg = make(kind, tokens=16, seed=1, activation=activation,
                                  cls_token=cls_token)
                x = Tensor(Rng(2).normal((2, cfg.total_tokens, cfg.dim)))
                monkeypatch.setattr(tz, "attention", fused)
                with MacCounter() as got:
                    mixer(x)
                monkeypatch.setattr(tz, "attention", composed_attention)
                with MacCounter() as chain:
                    mixer(x)
                assert got.macs == chain.macs, (activation, cls_token)

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("cls_token", [False, True])
    def test_one_attention_call_and_no_chain(self, kind, activation, cls_token, monkeypatch):
        # one path for every kind, activation and CLS setting: a taped forward
        # and backward make one `attention` call and no primitive of the chain
        mixer, cfg = make(kind, activation=activation, cls_token=cls_token)
        x = Tensor(Rng(3).normal((2, cfg.total_tokens, cfg.dim)))
        calls = []
        for name in ("attention", "softmax_rows", "relu", "gelu", "conv2d_grouped", "concat"):
            monkeypatch.setattr(tz, name, _counting(getattr(tz, name), calls))
        _forward_and_grads(mixer, x, Rng(4).normal(x.shape))
        assert [fn.__name__ for fn in calls] == ["attention"]

    def test_grad_check_through_fused_entry(self):
        for kind in ("mhsa", "ska", "cska"):
            mixer, cfg = make(kind, dim=4, heads=2, tokens=4, grid=(2, 2), seed=3)
            x = Tensor(Rng(4).normal((1, cfg.total_tokens, cfg.dim)))
            w = Rng(5).normal((1, cfg.total_tokens, cfg.dim))
            rows = grad_check(lambda: (mixer(x) * w).sum(), mixer.named_parameters())
            assert all(r.passed for r in rows), (kind, [(r.name, r.max_rel_error) for r in rows])


class TestScalingToggle:
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    def test_argmax_invariant_under_scaling(self, kind):
        scaled, cfg = make(kind, seed=1, scaled=True)
        unscaled, _ = make(kind, seed=1, scaled=False)
        x = Tensor(Rng(2).normal((2, cfg.total_tokens, cfg.dim)))
        a_scaled = attention_map(scaled, x)
        a_plain = attention_map(unscaled, x)
        assert np.array_equal(np.argmax(a_scaled, axis=-1), np.argmax(a_plain, axis=-1))


class TestParameterCounts:
    def test_bias_free_closed_forms(self):
        n, d = 16, 8
        expect = {
            "mhsa": 4 * d * d,
            "ska": n * d + 3 * d * d,
            "cska": 9 * n * d + 3 * d * d,
            "sepconv": 9 * d + 2 * d * d,
        }
        for kind, want in expect.items():
            mixer, _ = make(kind, dim=d, tokens=n, qkv_bias=False)
            _, total = count_parameters(mixer)
            assert total == want, kind

    def test_cls_adds_one_key_row_for_ska(self):
        n, d = 16, 8
        mixer, _ = make("ska", dim=d, tokens=n, qkv_bias=False, cls_token=True)
        _, total = count_parameters(mixer)
        assert total == (n + 1) * d + 3 * d * d

    def test_cls_adds_one_key_vector_for_cska(self):
        n, d = 16, 8
        mixer, _ = make("cska", dim=d, tokens=n, qkv_bias=False, cls_token=True)
        _, total = count_parameters(mixer)
        assert total == 9 * n * d + d + 3 * d * d


def expected_parameters(kind, qkv_bias, cls_token, starrelu):
    """Ordered (name, shape) of a D=8, H=2, N=16 (4x4 grid, 3x3 kernel) mixer."""
    star = [("act_scale", (1,)), ("act_bias", (1,))] if starrelu else []
    bias = [("bq", (8,)), ("bv", (8,)), ("bo", (8,))] if qkv_bias else []
    if kind == "mhsa":
        return star + [("wq", (8, 8)), ("wk", (8, 8)), ("wv", (8, 8)), ("wo", (8, 8))] + bias
    head = star + [("wq", (8, 8)), ("wv", (8, 8)), ("wo", (8, 8))] + bias
    if kind == "ska":
        return head + [("key", (2, 17 if cls_token else 16, 4))]
    return (head + [("conv_w", (32, 4, 3, 3))]
            + ([("conv_b", (32,))] if qkv_bias else [])
            + ([("cls_key", (2, 1, 4))] if cls_token else []))


class TestParameterContract:
    """Names and shapes are the checkpoint format; their order fixes the
    summation order of the gradient norm."""

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska"])
    @pytest.mark.parametrize("qkv_bias", [False, True])
    @pytest.mark.parametrize("cls_token", [False, True])
    @pytest.mark.parametrize("starrelu", [False, True])
    def test_ordered_names_and_shapes(self, kind, qkv_bias, cls_token, starrelu):
        mixer, _ = make(kind, qkv_bias=qkv_bias, cls_token=cls_token,
                        activation="starrelu" if starrelu else "softmax")
        got = [(p.name, p.tensor.shape) for p in mixer.named_parameters()]
        assert got == expected_parameters(kind, qkv_bias, cls_token, starrelu)

    @pytest.mark.parametrize("qkv_bias", [False, True])
    def test_sepconv_ignores_activation(self, qkv_bias):
        soft, _ = make("sepconv", qkv_bias=qkv_bias)
        star, _ = make("sepconv", qkv_bias=qkv_bias, activation="starrelu")
        assert ([(p.name, p.tensor.shape) for p in star.named_parameters()]
                == [(p.name, p.tensor.shape) for p in soft.named_parameters()])
        assert count_parameters(star)[1] == count_parameters(soft)[1]


class TestActivationsAndDropout:
    @pytest.mark.parametrize("act", ["gelu", "relu", "starrelu"])
    def test_non_softmax_rows_not_normalized(self, act):
        mixer, cfg = make("ska", activation=act, seed=4)
        attn = attention_map(mixer, Tensor(Rng(5).normal((1, 16, 8))))
        assert np.abs(attn.sum(axis=-1) - 1.0).max() > 1e-3

    def test_starrelu_registers_trainable_scalars(self):
        mixer, _ = make("ska", activation="starrelu")
        names = {p.name for p in mixer.named_parameters()}
        assert {"act_scale", "act_bias"} <= names
        assert mixer.act_scale.data[0] == pytest.approx(0.8944)
        assert mixer.act_bias.data[0] == pytest.approx(-0.4472)

    def test_unknown_activation_lists_options(self):
        with pytest.raises(ConfigError, match="softmax"):
            MixerConfig(kind="ska", dim=8, heads=2, tokens=4, activation="swish")

    def test_dropout_train_vs_eval(self):
        mixer, _ = make("ska", dropout=0.5)
        x = Tensor(Rng(6).normal((1, 16, 8)))
        mixer.eval()
        a = mixer(x).data
        b = mixer(x).data
        assert np.array_equal(a, b)
        mixer.train(True)
        c = mixer(x).data
        d = mixer(x).data
        assert not np.array_equal(c, d)  # fresh mask per forward

    def test_dropout_backward_uses_forward_mask(self):
        from skattn import Tape, backward
        from skattn import tensor as tz
        x = Tensor(Rng(7).normal((64,)))
        with Tape() as tape:
            y = tz.dropout(x, 0.25, Rng(8))
            loss = y.sum()
        grads = backward(tape, loss)
        mask = np.where(x.data != 0.0, y.data / x.data, 0.0)
        assert np.array_equal(grads[x], mask)
        kept = mask != 0.0
        assert np.allclose(mask[kept], 1.0 / 0.75)

    def test_sepconv_cls_rejected(self):
        with pytest.raises(ConfigError, match="CLS"):
            MixerConfig(kind="sepconv", dim=8, heads=1, tokens=16, grid=(4, 4), cls_token=True)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            MixerConfig(kind="mhsa", dim=32, heads=3)
