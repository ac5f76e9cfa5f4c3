import csv
import io
from fractions import Fraction

import pytest

from skattn import (ConfigError, NumericsError, closed_form, count_ops, counting_config,
                    emit_curves)
from skattn import complexity


class TestClosedForm:
    def test_selfattn_ratio_at_256(self):
        _, _, ratio = closed_form("mhsa", 256, 256)
        assert ratio == 256 + Fraction(256 * 256, 2 * 256) == 384

    def test_ska_ratio_at_256(self):
        _, _, ratio = closed_form("ska", 256, 256)
        assert ratio == 256 + Fraction(256 * 256, 256 + 3 * 256) == 320

    def test_cska_ratio_at_256(self):
        _, _, ratio = closed_form("cska", 256, 256)
        assert ratio == 256 + Fraction(256 * 256, 9 * 256 + 3 * 256)
        assert abs(float(ratio) - 277.3333333) < 1e-6

    def test_sepconv_ratio_is_n(self):
        for n, d in [(7, 3), (100, 64), (256, 256)]:
            assert closed_form("sepconv", n, d)[2] == n

    def test_ratio_equals_flops_over_params(self):
        for kind in ("mhsa", "ska", "cska", "sepconv"):
            f, p, r = closed_form(kind, 196, 64)
            assert r == Fraction(f, p)

    def test_non_three_kernel_unsupported(self):
        with pytest.raises(ConfigError, match="kernel 3"):
            closed_form("cska", 16, 8, k=5)
        with pytest.raises(ConfigError, match="kernel 3"):
            closed_form("sepconv", 16, 8, k=5)
        closed_form("mhsa", 16, 8, k=5)  # attention kinds ignore the kernel

    def test_invalid_extents(self):
        with pytest.raises(ConfigError):
            closed_form("ska", 0, 8)


class TestCountOps:
    def test_mhsa_example(self):
        rep = count_ops(counting_config("mhsa", 16, 8))
        assert rep.flops_counted == 16 * (2 * 16 * 8 + 4 * 8 * 8) == 8192
        assert rep.flops_counted == rep.flops_closed

    def test_cska_example(self):
        rep = count_ops(counting_config("cska", 16, 8))
        assert rep.flops_counted == 16 * (10 * 16 * 8 + 3 * 8 * 8) == 23552
        assert rep.flops_counted == rep.flops_closed

    def test_degenerate_single_token(self):
        rep = count_ops(counting_config("mhsa", 1, 8))
        assert rep.flops_counted == 2 * 8 + 4 * 8 * 8

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_exact_equality_and_head_independence(self, kind, heads):
        rep = count_ops(counting_config(kind, 16, 8, heads=heads))
        assert rep.flops_counted == rep.flops_closed
        assert rep.params_counted == rep.params_closed

    def test_ska_params_grow_with_tokens_mhsa_do_not(self):
        ska = [count_ops(counting_config("ska", n, 8)).params_counted for n in (4, 16, 64)]
        mhsa = [count_ops(counting_config("mhsa", n, 8)).params_counted for n in (4, 16, 64)]
        assert ska[0] < ska[1] < ska[2]
        assert mhsa[0] == mhsa[1] == mhsa[2]

    def test_kernel_five_instrumented_only(self):
        rep = count_ops(counting_config("cska", 16, 8, kernel=5))
        assert rep.flops_closed is None and not rep.closed_form_comparable
        # conv term scales with k^2: 25*N^2*D instead of 9*N^2*D
        assert rep.flops_counted == 16 * (25 * 16 + 16) * 8 + 3 * 16 * 8 * 8

    def test_cls_configs_flagged_incomparable(self):
        rep = count_ops(counting_config("ska", 16, 8, cls_token=True))
        assert not rep.closed_form_comparable
        assert rep.params_counted == (16 + 1) * 8 + 3 * 8 * 8

    def test_bias_mode_not_comparable(self):
        cfg = counting_config("ska", 16, 8)
        cfg.qkv_bias = True
        rep = count_ops(cfg)
        assert not rep.closed_form_comparable
        assert rep.params_counted == rep.params_closed + 3 * 8  # three bias vectors
        assert rep.flops_counted == rep.flops_closed  # biases add no MACs


class TestCurves:
    def _parse(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], rows[1:]

    def test_header_and_reference_row(self):
        header, rows = self._parse(emit_curves("vary_N", fixed=256, start=256, stop=256))
        assert header == ["x", "sepconv", "selfattn", "ska", "cska"]
        x, sep, attn, ska, cska = rows[0]
        assert (int(x), float(sep), float(attn), float(ska)) == (256, 256.0, 384.0, 320.0)
        assert abs(float(cska) - 277.333) < 1e-3

    def test_ordering_holds_at_every_point(self):
        _, rows = self._parse(emit_curves("vary_N", fixed=256, start=8, stop=512, step=8))
        for row in rows:
            sep, attn, ska, cska = map(float, row[1:])
            assert sep <= cska <= ska <= attn

    def test_selfattn_strictly_increasing_in_n(self):
        _, rows = self._parse(emit_curves("vary_N", fixed=64, start=1, stop=64))
        attn = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(attn, attn[1:]))

    def test_vary_d_mode(self):
        _, rows = self._parse(emit_curves("vary_D", fixed=256, start=256, stop=256))
        assert float(rows[0][2]) == 384.0

    def test_ordering_violation_raises(self, monkeypatch):
        # the guard on the paper's ordering: a closed form that broke it is caught
        real = complexity.closed_form
        monkeypatch.setattr(complexity, "closed_form", lambda kind, n, d: (
            (1, 1, Fraction(0)) if kind == "mhsa" else real(kind, n, d)))
        with pytest.raises(NumericsError, match="ratio ordering violated at N=4, D=8"):
            emit_curves("vary_N", fixed=8, start=4, stop=4)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            emit_curves("vary_N", start=0, stop=10)
        with pytest.raises(ConfigError):
            emit_curves("vary_X")
