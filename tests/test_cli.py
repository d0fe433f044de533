import io
import signal

import numpy as np
import pytest

from stepgrand import sim
from stepgrand.cli import MAX_EBN0_POINTS, build_parser, main, parse_ebn0, parse_variant
from stepgrand.codes import (
    build_bch, code_from_parity_check, load_dense_generator, save_alist, save_dense_generator,
)
from stepgrand.decoder import GrandabSpec, OrbgrandSpec, StepGrandSpec
from stepgrand.gf2 import BitMatrix
from stepgrand.sim import SweepConfig, compare_decoders


class TestEbn0Parsing:
    def test_range_inclusive(self):
        assert parse_ebn0("0:1:8") == tuple(float(x) for x in range(9))

    def test_fractional_step_reaches_stop(self):
        assert parse_ebn0("2:0.5:4") == (2.0, 2.5, 3.0, 3.5, 4.0)
        assert parse_ebn0("0:0.1:1")[-1] == 1.0
        assert len(parse_ebn0("0:0.1:1")) == 11

    def test_comma_list(self):
        assert parse_ebn0("3,4,5") == (3.0, 4.0, 5.0)
        assert parse_ebn0(" 3.5 ") == (3.5,)

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:4", "5:0:6", "4:1:2", ",", "abc"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_ebn0(text)

    def test_rejects_step_below_the_rounding(self):
        # rounded to 9 decimals, these points would repeat as 0.0 and 1e-09
        with pytest.raises(ValueError, match="points repeat"):
            parse_ebn0("0:1e-10:1e-9")
        assert parse_ebn0("0:1e-9:3e-9") == (0.0, 1e-9, 2e-9, 3e-9)

    def test_point_count_is_capped(self):
        assert len(parse_ebn0(f"0:1:{MAX_EBN0_POINTS - 1}")) == MAX_EBN0_POINTS
        # one point over the cap first: a parser that builds the points
        # before counting them fails there, not on the huge ranges
        for text in (f"0:1:{MAX_EBN0_POINTS}", "0:1e-9:1e6", "0:1e-300:1e300"):
            with pytest.raises(ValueError, match=f"more than {MAX_EBN0_POINTS} points"):
                parse_ebn0(text)

    def test_list_length_is_capped(self):
        points = [str(i) for i in range(MAX_EBN0_POINTS + 1)]
        assert len(parse_ebn0(",".join(points[:-1]))) == MAX_EBN0_POINTS
        with pytest.raises(ValueError, match=f"more than {MAX_EBN0_POINTS} points"):
            parse_ebn0(",".join(points))


class TestVariantParsing:
    def test_defaults(self):
        # a key not given takes the spec field's default
        assert parse_variant("grandab") == GrandabSpec(3) == GrandabSpec()
        assert parse_variant("orbgrand") == OrbgrandSpec(64, 6) == OrbgrandSpec()
        assert parse_variant("stepgrand") == StepGrandSpec(2, 6, 6) == StepGrandSpec()

    def test_explicit_parameters(self):
        assert parse_variant("grandab(ab=2)") == GrandabSpec(2)
        assert parse_variant("orbgrand(lw=96,p=4)") == OrbgrandSpec(96, 4)
        assert parse_variant(" stepgrand(a=1, b=8, p=4) ") == StepGrandSpec(1, 8, 4)
        assert parse_variant("orbgrand(p=3)") == OrbgrandSpec(64, 3)

    @pytest.mark.parametrize("text", [
        "huffman", "stepgrand(q=1)", "grandab(ab=x)", "grandab(ab)", "(a=1)",
        "stepgrand(a=2,a=3)", "orbgrand(p=4, p=4)", "grandab(ab=full)",
        "stepgrand(p=n)", "orbgrand(lw=n)", "orbgrand(p=full)",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_variant(text)

    @pytest.mark.parametrize("spec", [
        GrandabSpec(), GrandabSpec(0), StepGrandSpec(), StepGrandSpec(1, 8, 4),
        OrbgrandSpec(None, None), OrbgrandSpec(lw_max=40, p_max=None),
        OrbgrandSpec(lw_max=None, p_max=3),
        OrbgrandSpec(64, 6),
    ], ids=lambda spec: spec.label)
    def test_label_round_trip(self, spec):
        # the CSV metadata prints spec.label; it reads back as the same spec
        assert parse_variant(spec.label) == spec


@pytest.fixture(scope="module")
def dense_code_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "bch15.txt"
    save_dense_generator(build_bch(4, 2), path)
    return str(path)


class TestMainCommand:
    def test_sweep_to_file(self, dense_code_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "--code", f"dense:{dense_code_path}", "--decoder", "grandab(ab=2)",
            "--ebn0", "5,7", "--min-frame-errors", "3",
            "--max-frames", "1024", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "# variant=grandab(ab=2)" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("ebn0_db,frames,")
        assert len(data) == 3  # header + two points

    def test_sweep_to_stdout(self, dense_code_path, capsys):
        rc = main([
            "--code", f"dense:{dense_code_path}", "--ebn0", "6",
            "--decoder", "stepgrand(a=1,b=4,p=2)", "--min-frame-errors", "2",
            "--max-frames", "1024",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "# variant=stepgrand(a=1,b=4,p=2)" in captured

    def test_compare_to_file(self, dense_code_path, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main([
            "--code", f"dense:{dense_code_path}", "--ebn0", "5",
            "--decoder", "grandab(ab=1);grandab(ab=2)",
            "--min-frame-errors", "3", "--max-frames", "1024",
            "--out", str(out),
        ])
        assert rc == 0
        header = [ln for ln in out.read_text().splitlines()
                  if ln.startswith("ebn0_db")][0]
        assert "v1_fer" in header and "v2_fer" in header

    def test_variant_list_writes_the_compare_decoders_csv(self, dense_code_path, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main([
            "--code", f"dense:{dense_code_path}", "--ebn0", "4,6",
            "--decoder", "grandab(ab=1);orbgrand(lw=20,p=3);stepgrand(a=1,b=4,p=2)",
            "--min-frame-errors", "3", "--max-frames", "2048", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == 0
        cfg = SweepConfig(
            code=load_dense_generator(dense_code_path),
            variants=(GrandabSpec(1), OrbgrandSpec(20, 3), StepGrandSpec(1, 4, 2)),
            ebn0_db=(4.0, 6.0), min_frame_errors=3, max_frames=2048, seed=5,
        )
        expected = io.StringIO()
        compare_decoders(cfg, out=expected)
        assert out.read_text() == expected.getvalue()

    def test_close_ebn0_points_print_apart(self, dense_code_path, tmp_path):
        # six significant digits would print both close points as 10; a
        # point that six digits hold prints as before
        out = tmp_path / "close.csv"
        rc = main([
            "--code", f"dense:{dense_code_path}", "--decoder", "grandab(ab=1)",
            "--ebn0", "3.5,10.00001,10.00002", "--max-frames", "1024", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "# ebn0_db=3.5,10.00001,10.00002" in lines
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert [row.split(",")[0] for row in data] == ["3.5", "10.00001", "10.00002"]

    def test_alist_code_source(self, tmp_path):
        path = tmp_path / "code.alist"
        save_alist(build_bch(4, 1), path)
        out = tmp_path / "out.csv"
        rc = main([
            "--code", f"alist:{path}", "--decoder", "grandab(ab=1)",
            "--ebn0", "8", "--min-frame-errors", "1", "--max-frames", "1024",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("flag, ebn0, points", [
        ("--ebn0", "-1:1:2", ["-1", "0", "1", "2"]),
        ("--ebn0", "-2,-1", ["-2", "-1"]),
        ("--ebn", "-1:1:2", ["-1", "0", "1", "2"]),
        ("--eb", "-2,-1", ["-2", "-1"]),
    ])
    def test_negative_ebn0_as_separate_value(self, dense_code_path, capsys,
                                             flag, ebn0, points):
        rc = main([
            "--code", f"dense:{dense_code_path}", "--decoder", "grandab(ab=1)",
            flag, ebn0, "--min-frame-errors", "1",
            "--max-frames", "1024",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"# ebn0_db={','.join(points)}" in lines
        rows = [ln for ln in lines if not ln.startswith(("#", "ebn0_db"))]
        assert [row.split(",")[0] for row in rows] == points

    @pytest.mark.parametrize("prefix", ["--e", "--eb", "--ebn", "--ebn0"])
    def test_every_ebn0_prefix_is_ebn0(self, prefix):
        # _attach_ebn0 joins the value of every such prefix; a new flag
        # starting with --e would make a short prefix ambiguous
        args = build_parser().parse_args(["--code", "bch127", prefix, "4"])
        assert args.ebn0 == "4"

    @pytest.mark.parametrize("argv, fragment", [
        (["--code", "turbo9000", "--ebn0", "4"], "unknown code"),
        (["--code", "bch127", "--ebn0", "4:0:5"], "step must be positive"),
        (["--code", "bch127", "--ebn0", "nan"], "ebn0 values must be finite, got 'nan'"),
        (["--code", "bch127", "--ebn0=-inf"], "ebn0 values must be finite, got '-inf'"),
        (["--code", "bch127", "--ebn0", "-inf"],
         "ebn0 values must be finite, got '-inf'"),
        (["--code", "bch127", "--ebn0", "0:1:inf"], "ebn0 values must be finite"),
        (["--code", "bch127", "--ebn0", "4", "--decoder", "nosuch"],
         "unknown decoder 'nosuch'"),
        (["--code", "bch127", "--ebn0", "4", "--decoder",
          "grandab(ab=2);nosuch"], "unknown decoder"),
        (["--code", "bch127", "--ebn0", "4", "--decoder", "grandab(p=2)"],
         "unknown variant parameter 'p' in 'grandab(p=2)'"),
        (["--code", "bch127", "--ebn0", "4", "--decoder", ";"],
         "--decoder ';' names no variant"),
        (["--code", "bch127", "--ebn0", "4", "--decoder",
          "stepgrand(a=2,a=3);grandab"], "variant parameter 'a' given twice"),
        (["--code", "bch127", "--ebn0", "4", "--decoder",
          "stepgrand(a=1,b=1,p=1000000000)"],
         "p_max=1000000000 exceeds block length n=127"),
        (["--code", "bch127", "--ebn0", "0:1e-10:1e-9"], "points repeat"),
        (["--code", "bch127", "--ebn0", "3,4,3.0"], "ebn0_db point 3 is given twice"),
        (["--code", "bch127", "--ebn0", "4", "--decoder", "grandab;grandab(ab=3)"],
         "variant grandab(ab=3) is given twice"),
        (["--code", "bch127", "--ebn0", ",".join(map(str, range(MAX_EBN0_POINTS + 1)))],
         f"ebn0 list has more than {MAX_EBN0_POINTS} points"),
        (["--code", "bch127", "--ebn0", "4", "--min-frame-errors", "0"],
         "min_frame_errors"),
        (["--code", "capolar128", "--decoder", "grandab(ab=5)", "--ebn0", "4"],
         "grandab(ab=5) has 275584032 patterns at n=128,"
         " above the table limit of 33554432"),
        (["--code", "capolar128", "--decoder", "orbgrand(lw=9000,p=2);grandab(ab=1)",
          "--workers", "2", "--ebn0", "4"], "lw_max must be in [0, 8256], got 9000"),
        (["--code", "bch127", "--decoder", "grandab(ab=-1)", "--ebn0", "4"],
         "max_weight must be in [0, 127], got -1"),
        (["--code", "bch127", "--ebn0", "4", "--max-frames", str((1024 << 32) + 1)],
         "max_frames must be at most 4398046511104"),
    ])
    def test_config_errors_exit_nonzero(self, argv, fragment, capsys):
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err

    def test_code_above_63_parity_bits_exits_nonzero(self, tmp_path, capsys):
        # refused at config time, before any worker process starts
        path = tmp_path / "bch127_57.txt"
        save_dense_generator(build_bch(7, 11), path)
        rc = main(["--code", f"dense:{path}", "--ebn0", "4", "--workers", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "has 70 parity bits; syndromes pack into at most 63" in err

    def test_code_without_message_bits_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        # an alist of a square full-rank H has k = 0; it is refused at config
        # time, before any engine is built
        def no_engine(*args):
            pytest.fail("an engine was built for a code with no message bits")

        monkeypatch.setattr(sim, "build_engine", no_engine)
        path = tmp_path / "square.alist"
        eye = BitMatrix.from_array(np.eye(8, dtype=np.uint8))
        save_alist(code_from_parity_check("square", eye), path)
        rc = main(["--code", f"alist:{path}", "--decoder", "grandab(ab=1)",
                   "--ebn0", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "code square has no message bits (k = 0)" in err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_out_of_range_seed_exits_nonzero(self, seed, capsys):
        rc = main(["--code", "bch127", "--ebn0", "4", f"--seed={seed}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be in [0, 2**64)" in err

    def test_unwritable_output_exits_nonzero(self, dense_code_path, capsys):
        rc = main([
            "--code", f"dense:{dense_code_path}", "--ebn0", "8",
            "--min-frame-errors", "1", "--max-frames", "1024",
            "--out", "/no/such/directory/out.csv",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_huge_ebn0_range_fails_fast(self, dense_code_path, capsys):
        # 10**15 points: the alarm stops a parser that builds the points
        # before counting them long before they fill memory
        def too_slow(signum, frame):
            pytest.fail("the Eb/N0 range was not refused within a second")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            rc = main(["--code", f"dense:{dense_code_path}", "--ebn0", "0:1e-9:1e6"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"more than {MAX_EBN0_POINTS} points" in err

    def test_unwritable_output_fails_before_the_first_chunk(
            self, dense_code_path, tmp_path, monkeypatch, capsys):
        def no_chunk(*args):
            pytest.fail("a chunk ran before the output was opened")

        monkeypatch.setattr(sim, "_run_chunk", no_chunk)
        for argv in (["--decoder", "grandab"], ["--decoder", "grandab;stepgrand(a=1,b=4,p=2)"]):
            rc = main([
                "--code", f"dense:{dense_code_path}", "--ebn0", "3", *argv,
                "--max-frames", "60000", "--out", str(tmp_path / "missing" / "out.csv"),
            ])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: [Errno 2]")

    def test_missing_required_flags_use_argparse_exit(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["--code", "bch127"])
        assert exc_info.value.code == 2
