"""Command-line interface: subcommands, spec parsing, output determinism."""

import csv

import pytest

from skolemhop import cli


def run_cli(args):
    return cli.main(args)


TINY_SPEC = """\
# two-variation smoke spec
seed = 99
pairs = 6
horizon = 150
channels = 12
plan = padding
busy = 40

[variation]
name = sass-small
protocol = sass
pu = 25

[variation]
name = rch-small
protocol = rch
pu = 25
"""


class TestSequenceCommand:
    def test_order(self, capsys):
        assert run_cli(["sequence", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "order 4 sequence:" in out
        assert "VALID" in out

    def test_nonexistent_order(self, capsys):
        assert run_cli(["sequence", "--order", "5"]) == 2
        err = capsys.readouterr().err
        assert "congruent to 0 or 3 modulo 4" in err

    def test_channels_padding(self, capsys):
        assert run_cli(["sequence", "--channels", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 physical -> 4 effective" in out
        assert "ESS order 3:" in out
        assert "VALID" in out

    def test_channels_downsize(self, capsys):
        assert run_cli(["sequence", "--channels", "7", "--downsize"]) == 0
        out = capsys.readouterr().out
        assert "7 physical -> 5 effective" in out
        assert "discarded channels: 5, 6" in out


class TestTheoremsCommand:
    def test_four_effective_reproduces_table(self, capsys):
        assert run_cli(["theorems", "4"]) == 0
        out = capsys.readouterr().out
        table = [line.split(":")[1].strip() for line in out.splitlines()
                 if line.strip().startswith("shift")]
        assert table == ["all", "0", "1", "2", "3", "2", "1", "0"]
        assert out.count("PASS") == 2

    def test_eight_effective_passes(self, capsys):
        assert run_cli(["theorems", "8"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_inadmissible_count_rejected(self, capsys):
        assert run_cli(["theorems", "6"]) == 2
        assert "congruent to 0 or 1" in capsys.readouterr().err


class TestSpecParsing:
    def test_tiny_spec(self):
        spec = cli.parse_experiment_text(TINY_SPEC)
        assert spec.seed == 99
        assert len(spec.variations) == 2
        first = spec.variations[0]
        assert first.name == "sass-small"
        assert first.pu == 25.0
        assert first.horizon == 150

    def test_empty_spec_rejected(self):
        with pytest.raises(cli.SpecError):
            cli.parse_experiment_text("")

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.SpecError, match="unknown"):
            cli.parse_experiment_text("[variation]\nflux = 9\n")

    def test_duplicate_names_rejected(self):
        text = "[variation]\nname = a\n\n[variation]\nname = a\n"
        with pytest.raises(cli.SpecError, match="duplicate"):
            cli.parse_experiment_text(text)

    def test_bad_value_rejected(self):
        with pytest.raises(cli.SpecError, match="bad value"):
            cli.parse_experiment_text("[variation]\npairs = many\n")

    def test_comments_and_blanks_ignored(self):
        spec = cli.parse_experiment_text("# hi\n\n[variation]\nname = x  # tail\n")
        assert spec.variations[0].name == "x"

    @pytest.mark.parametrize("name", cli.PRESETS)
    def test_presets_roundtrip(self, name):
        spec = cli.preset(name)
        assert cli.parse_experiment_text(cli.render_experiment_spec(spec)) == spec

    def test_preset_shapes(self):
        fig2 = cli.preset("delivery-rate")
        assert len(fig2.variations) == 12
        assert {v.pu for v in fig2.variations} == {0.0, 25.0, 50.0, 75.0}
        fig3 = cli.preset("latency")
        assert {v.protocol for v in fig3.variations} == {"sass", "rch", "css"}
        assert all(v.horizon == 200 for v in fig3.variations)

    def test_unknown_preset(self):
        with pytest.raises(cli.SpecError):
            cli.preset("figure-9")


class TestExperimentCommand:
    def test_tiny_spec_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        out_dir = tmp_path / "out"
        assert run_cli(["experiment", str(spec_path), "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "sass-small:" in printed and "rch-small:" in printed
        rho = out_dir / "rho_pu25.csv"
        assert rho.exists()
        with open(rho) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["protocol"] for r in rows} == {"sass", "rch"}
        assert (out_dir / "latency.csv").exists()
        assert (out_dir / "summary.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["experiment", str(spec_path), "--out", str(out_a)]) == 0
        assert run_cli(["experiment", str(spec_path), "--out", str(out_b)]) == 0
        for name in ("rho_pu25.csv", "latency.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_workers_match_single_process(self, tmp_path):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        out_a, out_b = tmp_path / "w1", tmp_path / "w2"
        assert run_cli(["experiment", str(spec_path), "--out", str(out_a)]) == 0
        assert run_cli(
            ["experiment", str(spec_path), "--out", str(out_b), "--workers", "2"]
        ) == 0
        for name in ("rho_pu25.csv", "latency.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_empty_spec_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "empty.spec"
        spec_path.write_text("")
        assert run_cli(["experiment", str(spec_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert run_cli(["experiment", "/nonexistent/x.spec"]) == 2

    def test_no_spec_no_preset(self, capsys):
        assert run_cli(["experiment"]) == 2

    def test_dump_default_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "default.spec"
        assert run_cli(["experiment", "--dump-default", str(path)]) == 0
        spec = cli.parse_experiment_text(path.read_text())
        assert spec == cli.preset("delivery-rate")

    def test_dump_default_stdout(self, capsys):
        assert run_cli(["experiment", "--dump-default"]) == 0
        text = capsys.readouterr().out
        assert "[variation]" in text

    def test_overrides(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        out_dir = tmp_path / "out"
        code = run_cli([
            "experiment", str(spec_path), "--out", str(out_dir),
            "--pairs", "3", "--horizon", "60", "--pu", "0",
            "--protocol", "css", "--channels", "8",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "protocol=css" in printed and "pu=0%" in printed
        assert (out_dir / "rho_pu0.csv").exists()

    def test_records_flag(self, tmp_path):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC.replace("pairs = 6", "pairs = 2"))
        out_dir = tmp_path / "out"
        assert run_cli([
            "experiment", str(spec_path), "--out", str(out_dir), "--records",
        ]) == 0
        lines = (out_dir / "sass-small.ndjson").read_text().splitlines()
        assert len(lines) == 2 * 150
        import json

        record = json.loads(lines[0])
        assert set(record) == {"run", "slot", "tx", "rx", "pu", "delivered"}

    def test_variation_failure_independent(self, tmp_path, capsys):
        # An invalid variation is a spec error: nothing runs, nothing is written.
        bad = (TINY_SPEC + "\n[variation]\nname = broken\nprotocol = sass\n"
               "pu = 25\nchannels = 2\nplan = downsizing\n")
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text(bad)
        out_dir = tmp_path / "out"
        assert run_cli(["experiment", str(spec_path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert "broken" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "setting",
        ["pu = 150", "pairs = 0", "plan = bogus", "protocol = foo", "channels = 0",
         "pu = 25\nchannels = 0", "occupied = 2\nidle = inf", "occupied = 2\nidle = nan"],
    )
    def test_bad_variation_rejected_before_work(self, tmp_path, capsys, setting):
        bad = TINY_SPEC + f"\n[variation]\nname = broken\n{setting}\n"
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text(bad)
        out_dir = tmp_path / "out"
        code = run_cli(["experiment", str(spec_path), "--out", str(out_dir), "--records"])
        assert code == 2
        captured = capsys.readouterr()
        assert "variation broken" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "/tmp/x", "", "x y"])
    def test_name_cannot_escape_out(self, tmp_path, capsys, name):
        text = TINY_SPEC.replace("name = sass-small", f"name = {name}")
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text(text)
        out_dir = tmp_path / "out"
        code = run_cli(["experiment", str(spec_path), "--out", str(out_dir), "--records"])
        assert code == 2
        assert "variation name" in capsys.readouterr().err
        assert not out_dir.exists()
        assert list(tmp_path.iterdir()) == [spec_path]


class TestSeedMixing:
    def test_variation_seeds_stable_under_append(self):
        assert cli.variation_seed(7, 0) == cli.variation_seed(7, 0)
        assert cli.variation_seed(7, 0) != cli.variation_seed(7, 1)
        assert cli.variation_seed(7, 3) != cli.variation_seed(8, 3)
