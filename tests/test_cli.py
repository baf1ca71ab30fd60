"""Command-line interface: subcommands, spec parsing, output determinism."""

import csv
import dataclasses
import hashlib
import os
import pickle
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skolemhop import cli, hopping, skolem
from skolemhop.protocol import PROTOCOLS
from skolemhop.skolem import EssSequence


def run_cli(args):
    return cli.main(args)


# The language of `cli._NAME_PATTERN`, [A-Za-z0-9._-]+, drawn as text: faster than from_regex.
NAME_CHARS = string.ascii_letters + string.digits + "._-"


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


# One chunk and a bit per variation, with alias channels (10 -> 12) and a
# negative drift.
POOL_SPEC = f"""\
seed = 5
pairs = {cli.CHUNK_PAIRS + 1}
horizon = 120
busy = 40
channels = 10

[variation]
name = sass-neg
protocol = sass
pu = 50
drift = -37

[variation]
name = rch-pu25
protocol = rch
pu = 25

[variation]
name = css-pu50
protocol = css
pu = 50
"""

# Three chunks of the middle variation are in flight when its first one fails.
FAILING_SPEC = f"""\
seed = 8
pairs = {2 * cli.CHUNK_PAIRS + 20}
horizon = 60
busy = 20

[variation]
name = sass-first
protocol = sass
pu = 25

[variation]
name = css-failing
protocol = css
pu = 25

[variation]
name = rch-last
protocol = rch
pu = 25
"""

# PU 25's first variation fails, and PU 50's only one.
STREAMED_FAILING_SPEC = """\
seed = 8
pairs = 3
horizon = 300
busy = 20

[variation]
protocol = css
pu = 25

[variation]
protocol = sass
pu = 25

[variation]
protocol = css
pu = 50

[variation]
protocol = rch
pu = 25
"""

_RUN_CHUNK = cli._run_chunk


def _chunk_failing_for_css(config, start, stop):
    # Module-level, so that the pool can send it to its workers by name.
    if config.protocol == "css" and start == 0:
        raise RuntimeError("injected chunk failure")
    return _RUN_CHUNK(config, start, stop)


def run_python(*args):
    """Run `python *args` in a fresh interpreter that imports skolemhop from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def experiment_outputs(spec_path, out_dir, workers, records=True):
    args = ["experiment", str(spec_path), "--out", str(out_dir), "--workers", str(workers)]
    code = run_cli(args + ["--records"] if records else args)
    return code, {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


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

    def test_huge_channel_count_refused_in_constant_memory(self):
        # 10**9 channels are refused by the N' bound before any work in N. The child's
        # address space is capped, so a map of N entries fails there, not on the host.
        script = (
            "import resource, tracemalloc\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from skolemhop import cli\n"
            "tracemalloc.start()\n"
            "code = cli.main(['sequence', '--channels', '1000000000'])\n"
            "print(code, tracemalloc.get_traced_memory()[1])\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert f"at most {skolem.MAX_ORDER + 1} effective channels" in result.stderr
        code, peak = map(int, result.stdout.split())
        assert code == 2
        assert peak < 2**20

    @pytest.mark.parametrize("args,digest", [
        ("--order 11", "cc4028d23e548f9ce9a27cc013bf4f8225badac11c451dcfcc7dba44d74fb3be"),
        ("--channels 10", "72b5a23405d666b16736ff72ac0b5bfd11538db12199a3ab94c7403043c5c653"),
        ("--channels 7 --downsize",
         "11a1d4c5f4b0f73dcae3e50f87b2a80dde45a435624c2b1be52229c6504ddc8d"),
    ])
    def test_stdout_pinned(self, capsys, args, digest):
        # sha256 of the full stdout.
        assert run_cli(["sequence", *args.split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("n_eff,digest", [
        (4, "c1994edc265421394ceabe69ef9a3295da4cbc094766dea9d6040876ab6e76ec"),
        (12, "41f7139a463cfdcea8210ca1a26ad256e6158ba77ad30028b363057ba2743ddc"),
        (64, "d950943f5863d192d9155ad5ae498085e5e532da89f27474db57ede6c46692b6"),
    ])
    def test_stdout_pinned(self, capsys, n_eff, digest):
        # sha256 of the full stdout as printed by the pair-by-pair checkers.
        assert run_cli(["theorems", str(n_eff)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_every_admissible_count_pinned(self, capsys):
        # sha256 of the stdouts of all 31 admissible N' in 4..64, concatenated in order.
        for n_eff in range(4, 65):
            if n_eff % 4 in (0, 1):
                assert run_cli(["theorems", str(n_eff)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "565eb841769eb617bb5f2f994a749d4359c7e001011e7a16281206a6d61d21b8")

    def test_every_admissible_count_past_64_passes(self, capsys):
        # The rest of the counts the construction accepts, N' 65..80, by their two PASS lines.
        for n_eff in range(65, skolem.MAX_ORDER + 2):
            if n_eff % 4 in (0, 1):
                assert run_cli(["theorems", str(n_eff)]) == 0, n_eff
                out = capsys.readouterr().out
                assert out.count(": PASS\n") == 2 and "FAIL" not in out, n_eff

    def test_inadmissible_count_rejected(self, capsys):
        assert run_cli(["theorems", "6"]) == 2
        assert "congruent to 0 or 1" in capsys.readouterr().err

    def test_too_few_channels_rejected(self, capsys):
        assert run_cli(["theorems", "1"]) == 2
        assert "need at least 4 effective channels" in capsys.readouterr().err

    def test_count_above_bound_rejected_before_construction(self, capsys, monkeypatch,
                                                            tmp_path):
        # Every command refuses an order past the table's bound before it reads the table.
        monkeypatch.setattr(skolem, "_FIRST_SLOTS", {})  # any read of the table raises
        out_dir = tmp_path / "out"
        for argv in (["theorems", "84"], ["sequence", "--order", "83"],
                     ["sequence", "--channels", "100"],
                     ["experiment", "--preset", "latency", "--channels", "100", "--pairs", "1",
                      "--out", str(out_dir)]):
            assert run_cli(argv) == 2, argv
            captured = capsys.readouterr()
            assert f"at most {skolem.MAX_ORDER + 1} effective channels" in captured.err, argv
            assert captured.out == "", argv
        assert not out_dir.exists()

    def test_one_pass_over_the_cells(self, capsys, monkeypatch):
        # The drift table and both checks of one run read one P x P comparison of the cells
        # u[(t + d) % P] == u[t]. Channels here count the comparisons made between two of them;
        # one object per value, so that set and dict lookups compare by identity.
        compared = []

        class Channel(int):
            def __eq__(self, other):
                if type(other) is Channel:
                    compared.append(1)
                return int.__eq__(self, other)

            __hash__ = int.__hash__

        plain = cli.ess_for_channel_count(12)
        channels = {v: Channel(v) for v in plain.values}
        counted = EssSequence(plain.order, tuple(channels[v] for v in plain.values))
        monkeypatch.setattr(cli, "ess_for_channel_count", lambda n_eff: counted)
        # The plain sequence is an equal key, so its cached table would be served.
        hopping._coincidences.cache_clear()
        try:
            assert run_cli(["theorems", "12"]) == 0
        finally:
            hopping._coincidences.cache_clear()
        assert len(compared) == plain.period ** 2
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "41f7139a463cfdcea8210ca1a26ad256e6158ba77ad30028b363057ba2743ddc")


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        # A cached parser must not carry one call's subcommand or options into the next.
        calls = [
            ["sequence", "--channels", "10", "--downsize"],
            ["sequence", "--channels", "10"],
            ["experiment", "--preset", "latency", "--dump-default", "-"],
            ["experiment", "--dump-default"],
            ["theorems", "5"],
        ]
        assert cli.build_parser() is cli.build_parser()
        outputs = []
        for args in calls:
            assert run_cli(args) == 0
            outputs.append(capsys.readouterr().out)
        for args, out in zip(calls, outputs):
            cli.build_parser.cache_clear()
            assert run_cli(args) == 0
            assert capsys.readouterr().out == out, args
        assert outputs[0] != outputs[1] and outputs[2] != outputs[3]

    def test_protocol_choices_are_the_protocols(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        experiment = sub.choices["experiment"]
        choices = next(a.choices for a in experiment._actions if a.dest == "protocol")
        assert tuple(choices) == PROTOCOLS


class TestProcessExit:
    def test_heap_frozen_at_exit_by_one_hook(self):
        # atexit runs handlers last-registered first, so the CLI's hook runs before the
        # probe; gc.freeze is counted, so a second hook would show as a second call.
        script = (
            "import atexit, gc\n"
            "from skolemhop import cli\n"
            "freeze, calls = gc.freeze, []\n"
            "gc.freeze = lambda: calls.append(freeze())\n"
            "atexit.register(lambda: print('at exit:', len(calls), gc.get_freeze_count() > 0))\n"
            "assert cli.main(['theorems', '4']) == 0\n"
            "assert cli.main(['theorems', '4']) == 0\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "at exit: 1 True"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="Linux /proc only")
    def test_experiment_runs_on_one_thread(self, tmp_path):
        # OpenBLAS starts a worker thread on import unless told otherwise; the CLI
        # never calls BLAS, so its process must stay single-threaded.
        script = (
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "from skolemhop import cli\n"
            "assert cli.main(['experiment', '--preset', 'latency', '--pairs', '1',"
            " '--out', sys.argv[1]]) == 0\n"
            "print('threads:', len(os.listdir('/proc/self/task')))\n"
        )
        result = run_python("-c", script, str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "threads: 1"

    def test_module_run_loses_nothing_at_exit(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        code, expected = experiment_outputs(spec_path, tmp_path / "in-process", 2)
        assert code == 0
        printed = capsys.readouterr().out
        out_dir = tmp_path / "module"
        result = run_python("-m", "skolemhop.cli", "experiment", str(spec_path),
                            "--out", str(out_dir), "--records", "--workers", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout == printed
        assert {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} == expected


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
        # In a [variation] block, above the first one, and a line that sets no key.
        for text, message in (("[variation]\nflux = 9\n", "unknown variation key"),
                              ("flux = 9\n[variation]\n", "unknown global key"),
                              ("[variation]\nflux 9\n", "expected 'key = value'")):
            with pytest.raises(cli.SpecError, match=message):
                cli.parse_experiment_text(text)

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

    def test_presets_pinned(self):
        # Field order: name, protocol, channels, plan, pu, occupied, idle,
        # pairs, horizon, busy, drift.
        delivery_rate = [
            (f"{protocol}-pu{pu}", protocol, 12, "padding", float(pu), None, None,
             1000, 1000, 400, None)
            for pu in (0, 25, 50, 75)
            for protocol in ("sass", "rch", "css")
        ]
        latency = [
            ("sass-latency", "sass", 12, "padding", 25.0, None, None, 1000, 200, 400, None),
            ("rch-latency", "rch", 12, "padding", 25.0, None, None, 1000, 200, 400, None),
            ("css-latency", "css", 12, "padding", 25.0, None, None, 1000, 200, 400, None),
        ]
        for name, expected in (("delivery-rate", delivery_rate), ("latency", latency)):
            spec = cli.preset(name)
            assert (spec.seed, spec.out) == (20260801, "results")
            assert [dataclasses.astuple(v) for v in spec.variations] == expected

    @given(
        seed=st.integers(0, 2**63),
        out=st.text(alphabet=NAME_CHARS + "/", min_size=1),
        variations=st.lists(
            st.builds(
                cli.Variation,
                name=st.text(alphabet=NAME_CHARS, min_size=1),
                protocol=st.sampled_from(["sass", "rch", "css"]),
                channels=st.integers(-5, 10**6),
                plan=st.sampled_from(["padding", "downsizing"]),
                pu=st.none() | st.floats(allow_nan=False, allow_infinity=False),
                occupied=st.none() | st.integers(-5, 10**6),
                idle=st.none() | st.floats(allow_nan=False, allow_infinity=False),
                pairs=st.integers(-5, 10**9),
                horizon=st.integers(-5, 10**9),
                busy=st.integers(-5, 10**6),
                drift=st.none() | st.integers(-(10**9), 10**9),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda v: v.name,
        ),
    )
    @example(
        seed=1, out="results",
        variations=[cli.Variation("a", "sass", 12, "padding", 12.3456789, None, None,
                                  10, 10, 400, None)],
    )
    @example(
        seed=1, out="results",
        variations=[cli.Variation("a", "sass", 12, "padding", None, 2, 1234567.0,
                                  10, 10, 400, -3)],
    )
    def test_render_roundtrip(self, seed, out, variations):
        spec = cli.ExperimentSpec(seed=seed, out=out, variations=tuple(variations))
        assert cli.parse_experiment_text(cli.render_experiment_spec(spec)) == spec

    def test_readme_key_table_matches_grammar(self):
        # Each row of the README's key table, in order: the key, its default as
        # spec text, and its scope, as the fields of Variation and ExperimentSpec state them.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | default | scope | meaning |\n|---|---|---|---|\n", 1)[1]
        rows = [line.strip("| ").split(" | ") for line in table.split("\n\n", 1)[0].splitlines()]
        assert [row[0] for row in rows] == [f"`{key}`" for key in cli._KEYS]
        for (_, default, scope, _), (key, meta) in zip(rows, cli._KEYS.items()):
            if key not in cli._VARIATION_KEYS:
                assert scope == "global only", key
            else:
                assert scope == ("global" if meta["above"] else "variation"), key
            if meta["default"] is not None:
                assert default == f"`{meta['default']}`", key
            else:  # unset; a name is made from the protocol and pu
                assert default.startswith("`<protocol>-pu<pu>`" if key == "name" else "unset"), key

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
        # Fewer pairs than a chunk, then one pair more than a chunk.
        for label, spec in (("tiny", TINY_SPEC), ("pool", POOL_SPEC)):
            spec_path = tmp_path / f"{label}.spec"
            spec_path.write_text(spec)
            code, single = experiment_outputs(spec_path, tmp_path / f"{label}-w1", 1)
            assert code == 0
            assert any(name.endswith(".ndjson") for name in single)
            for workers in (2, 3):
                out_dir = tmp_path / f"{label}-w{workers}"
                assert experiment_outputs(spec_path, out_dir, workers) == (0, single)

    def test_workers_match_single_process_without_records(self, tmp_path):
        # Only rows cross the pool's pipes; they report what the traces of --records do.
        spec_path = tmp_path / "pool.spec"
        spec_path.write_text(POOL_SPEC)
        code, traced = experiment_outputs(spec_path, tmp_path / "records", 2)
        assert code == 0
        csvs = {name: data for name, data in traced.items() if name.endswith(".csv")}
        for workers in (1, 2, 3):
            out_dir = tmp_path / f"w{workers}"
            assert experiment_outputs(spec_path, out_dir, workers, records=False) == (0, csvs)

    def test_chunk_size_does_not_change_results(self, tmp_path, monkeypatch):
        # Every pair draws from its own streams, so neither how the pairs are cut into
        # chunks nor which worker runs a chunk may change a byte. Forked workers inherit
        # the patched size.
        spec_path = tmp_path / "pool.spec"
        spec_path.write_text(POOL_SPEC)
        outputs = []
        for chunk_pairs in (1, 7, 50):
            monkeypatch.setattr(cli, "CHUNK_PAIRS", chunk_pairs)
            for workers in (1, 2):
                out_dir = tmp_path / f"chunk{chunk_pairs}-w{workers}"
                outputs.append(experiment_outputs(spec_path, out_dir, workers))
        code, first = outputs[0]
        assert code == 0 and any(name.endswith(".ndjson") for name in first)
        assert outputs == [(0, first)] * 6

    @pytest.mark.parametrize("workers,records", [(1, False), (2, False), (1, True), (2, True)],
                             ids=["1", "2", "1-records", "2-records"])
    def test_pool_rows_are_the_traces_rows_in_pair_order(self, workers, records):
        # One shape at every worker count: rows reduced where the chunk ran, and
        # with --records its traces too, both in pair order.
        from skolemhop import metrics, simenv

        config = simenv.SimConfig(n_channels=10, protocol="sass", pu_channels=3, busy_len=40,
                                  idle_mean=30.0, horizon=120, pairs=2 * cli.CHUNK_PAIRS + 7,
                                  seed=6)
        pool = cli._ChunkPool([config], workers, records=records)
        try:
            rows, traces = cli._run_variation(config, workers, pool)
        finally:
            pool.close()
        simulated = simenv.run(config)
        expected = metrics.pair_rows(simulated)
        assert rows.horizon == expected.horizon
        assert rows.counts.tolist() == expected.counts.tolist()
        assert (rows.first_delivery, rows.missync) == (expected.first_delivery, expected.missync)
        if not records:
            assert traces == []
            return
        assert [t.pair_index for t in traces] == list(range(config.pairs))
        for got, want in zip(traces, simulated):
            assert got.receiver_channel.tolist() == want.receiver_channel.tolist()
            assert got.delivered.tolist() == want.delivered.tolist()

    def test_chunk_result_grows_with_sample_points_not_horizon(self):
        from skolemhop import metrics, simenv

        sizes = {}
        for horizon in (1000, 10_000):
            config = simenv.SimConfig(n_channels=12, protocol="sass", horizon=horizon,
                                      pairs=cli.CHUNK_PAIRS, seed=4)
            rows, traces = cli._chunk_result((config, 0, cli.CHUNK_PAIRS), False)
            assert traces == []
            sizes[horizon] = (len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)),
                              len(metrics.rho_sample_points(horizon)))
        (small, small_points), (big, big_points) = sizes[1000], sizes[10_000]
        # Two bytes (a uint16 count) per pair for each added sample point, and
        # nothing for the other 8100 added slots, where a trace holds 6 bytes a slot.
        counts = cli.CHUNK_PAIRS * 2 * (big_points - small_points)
        assert abs((big - small) - counts) <= 512

    def test_failed_chunk_fails_only_its_variation(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "failing.spec"
        spec_path.write_text(FAILING_SPEC)
        code, clean = experiment_outputs(spec_path, tmp_path / "clean", 1)
        assert code == 0
        # Patched before the pool forks, so the workers run the failing chunk.
        monkeypatch.setattr(cli, "_run_chunk", _chunk_failing_for_css)
        code, failed = experiment_outputs(spec_path, tmp_path / "failed", 2)
        assert code == 1
        err = capsys.readouterr().err
        assert "error: variation css-failing: injected chunk failure" in err
        assert "sass-first" not in err and "rch-last" not in err
        assert "css-failing.ndjson" not in failed

        def without_css(outputs):
            rows = {}
            for name, data in outputs.items():
                if name.endswith(".csv"):
                    lines = data.decode().splitlines()
                    rows[name] = [r for r in csv.reader(lines) if "css" not in r]
                elif not name.startswith("css"):
                    rows[name] = data
            return rows

        assert without_css(failed) == without_css(clean)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_first_variation_leaves_one_rho_header(self, tmp_path, capsys, monkeypatch,
                                                          workers):
        from skolemhop import metrics

        spec_path = tmp_path / "streamed.spec"
        spec_path.write_text(STREAMED_FAILING_SPEC)
        code, clean = experiment_outputs(spec_path, tmp_path / "clean", 1, records=False)
        assert code == 0
        monkeypatch.setattr(cli, "_run_chunk", _chunk_failing_for_css)
        code, failed = experiment_outputs(spec_path, tmp_path / "failed", workers, records=False)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: variation css-pu25: injected chunk failure",
            "error: variation css-pu50: injected chunk failure",
        ]
        # No variation of PU 50 reported, so it has no file.
        assert "rho_pu50.csv" in clean and "rho_pu50.csv" not in failed
        # PU 25's later variations created and appended to its file: one header, their rows.
        lines = clean["rho_pu25.csv"].decode().splitlines()[1:]
        rows = [(p, pu, int(t), float(m), float(s))
                for p, pu, t, m, s in csv.reader(lines) if p != "css"]
        assert [p for p, *_ in rows] == ["sass"] * (len(rows) // 2) + ["rch"] * (len(rows) // 2)
        metrics.write_rho_csv(tmp_path / "one-call.csv", rows)
        assert failed["rho_pu25.csv"] == (tmp_path / "one-call.csv").read_bytes()

    def test_parent_holds_one_variation_of_rho_rows(self, tmp_path, capsys):
        # 5 180 rho points a variation at horizon 50 000: were the rows of every
        # variation held to the end, 4 more variations would add ~3 MB to the peak.
        import tracemalloc

        def peak(variations):
            spec_path = tmp_path / f"{variations}.spec"
            spec_path.write_text("pairs = 1\nhorizon = 50000\n" + "".join(
                f"[variation]\nname = css-{i}\nprotocol = css\npu = 25\n"
                for i in range(variations)))
            argv = ["experiment", str(spec_path), "--workers", "1",
                    "--out", str(tmp_path / f"out-{variations}")]
            tracemalloc.start()
            try:
                assert run_cli(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # imports and caches load outside the measured runs
        assert peak(6) - peak(2) < 500_000

    def test_pool_walks_its_schedule_without_storing_it(self, monkeypatch):
        # 2**32 pairs are ~86 M chunks: the pool builds none of them, and runs none
        # before they are collected.
        import tracemalloc

        from skolemhop import simenv

        def no_chunk(config, start, stop):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(cli, "_run_chunk", no_chunk)
        config = simenv.SimConfig(n_channels=12, pairs=2**32)
        tracemalloc.start()
        try:
            pool = cli._ChunkPool([config], 1, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool.close()
        assert peak < 64 * 1024

    def test_pool_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        forks, fork, log = [], os.fork, tmp_path / "chunks.log"

        def counted_fork():
            forks.append(None)
            return fork()

        def logged_chunk(config, start, stop):
            # Runs in this process or in a child: the log is appended to, one short line a chunk.
            with open(log, "a") as fh:
                fh.write(f"{config.protocol} {start} {stop}\n")
            return _RUN_CHUNK(config, start, stop)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(cli, "_run_chunk", logged_chunk)
        spec_path = tmp_path / "pool.spec"
        spec_path.write_text(POOL_SPEC)
        # The chunks do not depend on --workers: CHUNK_PAIRS, then the rest.
        chunk = cli.CHUNK_PAIRS
        chunks = [[protocol, str(start), str(stop)] for protocol in ("sass", "rch", "css")
                  for start, stop in ((0, chunk), (chunk, chunk + 1))]
        _, single = experiment_outputs(spec_path, tmp_path / "w1", 1)
        # One process runs them itself, in order, and forks nothing.
        assert not forks
        assert [line.split() for line in log.read_text().splitlines()] == chunks
        log.unlink()
        assert experiment_outputs(spec_path, tmp_path / "w5000", 5000) == (0, single)
        assert len(forks) == 3
        assert sorted(line.split() for line in log.read_text().splitlines()) == sorted(chunks)

    @pytest.mark.parametrize("death,status", [("os._exit(3)", 3),
                                              ("raise KeyboardInterrupt", 1)])
    def test_dead_worker_fails_the_variations_it_owed(self, tmp_path, death, status):
        spec_path = tmp_path / "failing.spec"
        spec_path.write_text(FAILING_SPEC)
        code, clean = experiment_outputs(spec_path, tmp_path / "clean", 1)
        assert code == 0
        script = (
            "import os, sys\n"
            "from skolemhop import cli\n"
            "run_chunk = cli._run_chunk\n"
            "def dying_chunk(config, start, stop):\n"
            "    if config.protocol == 'css' and start == 0:\n"
            f"        {death}\n"
            "    return run_chunk(config, start, stop)\n"
            "cli._run_chunk = dying_chunk\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out_dir = tmp_path / "dead"
        result = run_python("-c", script, "experiment", str(spec_path), "--out", str(out_dir),
                            "--workers", "2")
        assert result.returncode == 1, result.stderr
        # Of two children, the one running the css chunk from pair 0 also owes
        # the rch variation a chunk; the sass variation ran before it died.
        assert result.stderr.splitlines() == [
            f"error: variation css-failing: worker exited with status {status}",
            f"error: variation rch-last: worker exited with status {status}",
        ]
        lines = result.stdout.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sass-first: ")
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "latency.csv", "rho_pu25.csv", "summary.csv"]
        for name in ("latency.csv", "rho_pu25.csv", "summary.csv"):
            clean_lines = clean[name].decode().splitlines()
            expected = [line for line in clean_lines if "css" not in line and "rch" not in line]
            assert (out_dir / name).read_text().splitlines() == expected

    def test_commands_without_simulation_leave_numpy_random_unloaded(self, tmp_path):
        # Each in a fresh interpreter: only the simulating commands import numpy at all,
        # and none of these imports pickle, which only the worker pool uses.
        empty_spec = tmp_path / "empty.spec"
        empty_spec.write_text("")
        script = (
            "import sys\n"
            "from skolemhop import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
            "      'pickle' in sys.modules)\n"
        )
        for args, code in [
            (["theorems", "12"], 0),
            (["theorems", "6"], 2),
            (["sequence", "--order", "11"], 0),
            (["sequence", "--channels", "10"], 0),
            (["experiment", "--dump-default", "-"], 0),
            (["experiment", str(empty_spec)], 2),
        ]:
            result = run_python("-c", script, *args)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[-1] == f"{code} False False False", args

    def test_pool_parent_leaves_pool_modules_and_numpy_random_unloaded(self, tmp_path):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        script = (
            "import sys\n"
            "from skolemhop import cli\n"
            "assert cli.main(['experiment', *sys.argv[1:], '--workers', '2']) == 0\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'numpy.random')\n"
            "             if m in sys.modules))\n"
        )
        result = run_python("-c", script, str(spec_path), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "rho_pu25.csv").exists()

    def test_tiny_pu_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.spec"
        spec_path.write_text(TINY_SPEC)
        out_dir = tmp_path / "out"
        assert run_cli(["experiment", str(spec_path), "--pu", "1e-9", "--out", str(out_dir)]) == 0
        assert (out_dir / "rho_pu1e-09.csv").exists()

    @pytest.mark.parametrize("load", [["--pu", "1e-15"], ["--pu", "1e-200"]])
    def test_tinier_pu_runs(self, tmp_path, capsys, load):
        # Idle draws reach past 2**63 slots, so the phase draw must not overflow int64.
        out_dir = tmp_path / "out"
        args = ["experiment", "--preset", "latency", "--pairs", "2", "--out", str(out_dir)]
        assert run_cli(args + load) == 0
        assert (out_dir / f"rho_pu{float(load[1]):g}.csv").exists()

    def test_huge_raw_idle_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "idle.spec"
        spec_path.write_text(TINY_SPEC + "\n[variation]\nname = idle\noccupied = 4\n"
                             "idle = 1e300\n")
        assert run_cli(["experiment", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        assert "idle: protocol=sass" in capsys.readouterr().out

    def test_unrepresentable_pu_refused_before_work(self, tmp_path, capsys):
        # pu 1e-305 % at 12 channels needs an idle mean that overflows a float.
        out_dir = tmp_path / "out"
        code = run_cli(["experiment", "--preset", "latency", "--pu", "1e-305", "--pairs", "2",
                        "--out", str(out_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert "variation sass-latency: pu_percent 1e-305 needs an idle mean" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

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
        path = tmp_path / "latency.spec"
        assert run_cli(["experiment", "--preset", "latency", "--dump-default", str(path)]) == 0
        assert cli.parse_experiment_text(path.read_text()) == cli.preset("latency")

    def test_dump_default_stdout(self, capsys):
        assert run_cli(["experiment", "--dump-default"]) == 0
        text = capsys.readouterr().out
        assert "[variation]" in text

    @pytest.mark.parametrize("preset,digest", [
        ("delivery-rate", "8318208da270fe49691217638e921dc5f5c27b677501efaf0b780d8f8ab5cdb2"),
        ("latency", "610885df5b85bde0ef89a14a36c5862f87adff5d16d977709137816f220b0f40"),
    ])
    def test_dump_default_pinned(self, capsys, preset, digest):
        # sha256 of the full stdout: every key in `_KEYS` order, drift as `uniform`.
        assert run_cli(["experiment", "--preset", preset, "--dump-default"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_dump_default_unwritable(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.spec"
        assert run_cli(["experiment", "--dump-default", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        assert not path.parent.exists()

    @pytest.mark.parametrize("via", ["flag", "spec"])
    def test_out_under_file_rejected(self, tmp_path, capsys, via):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "out"
        spec_path = tmp_path / "tiny.spec"
        args = ["experiment", str(spec_path)]
        if via == "flag":
            spec_path.write_text(TINY_SPEC)
            args += ["--out", str(out_dir)]
        else:
            spec_path.write_text(f"out = {out_dir}\n" + TINY_SPEC)
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

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
        # --seed 7 writes what the spec with seed = 7 writes, and not what the default seed does.
        unseeded = TINY_SPEC.replace("seed = 99\n", "")
        runs = {}
        for run, text, flags in (("flag", unseeded, ["--seed", "7"]),
                                 ("spec", "seed = 7\n" + unseeded, []), ("default", unseeded, [])):
            spec_path, out_dir = tmp_path / f"{run}.spec", tmp_path / run
            spec_path.write_text(text)
            code = run_cli(["experiment", str(spec_path), "--out", str(out_dir), *flags])
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs[run] = code, capsys.readouterr().out, files
        assert runs["flag"][0] == 0
        assert runs["flag"] == runs["spec"]
        assert runs["flag"][2] != runs["default"][2]

    def test_downsize_flag_is_the_plan_override(self, tmp_path, capsys):
        # `--downsize` writes what the same spec with `plan = downsizing` writes, byte
        # for byte, and not what the padded spec writes (10 channels: N' 9, not 12).
        padded = TINY_SPEC.replace("channels = 12", "channels = 10")
        downsized = padded.replace("plan = padding", "plan = downsizing")
        runs = {}
        for run, text, flags in (("flag", padded, ["--downsize"]), ("spec", downsized, []),
                                 ("padded", padded, [])):
            spec_path, out_dir = tmp_path / f"{run}.spec", tmp_path / run
            spec_path.write_text(text)
            code = run_cli(["experiment", str(spec_path), "--out", str(out_dir), "--records",
                            *flags])
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs[run] = code, capsys.readouterr().out, files
        assert runs["flag"][0] == 0
        assert runs["flag"] == runs["spec"]
        assert runs["flag"][2] != runs["padded"][2]

    def test_negative_zero_pu_labelled_zero(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli([
            "experiment", "--preset", "latency", "--out", str(out_dir),
            "--pairs", "2", "--horizon", "50", "--pu", "-0",
        ]) == 0
        assert "pu=0%" in capsys.readouterr().out
        assert (out_dir / "rho_pu0.csv").exists()
        assert not (out_dir / "rho_pu-0.csv").exists()

    def test_negative_zero_pu_default_name(self):
        spec = cli.parse_experiment_text("[variation]\nprotocol = sass\npu = -0\n")
        assert spec.variations[0].name == "sass-pu0"

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
        ["pu = 150", "pairs = 0", "pairs = 4294967297", "plan = bogus", "protocol = foo", "channels = 0",
         "pu = 25\nchannels = 0", "occupied = 2\nidle = inf", "occupied = 2\nidle = nan",
         "occupied = 2\nidle = 1e301",
         "plan = downsize", "channels = 1", "channels = 3\nplan = downsizing",
         "occupied = 2", "idle = 3"],
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

    @pytest.mark.parametrize("via", ["spec", "flag"])
    def test_negative_seed_rejected_as_the_seed_key(self, tmp_path, capsys, via):
        # The seed key's own error, before any variation resolves.
        spec_path, out_dir = tmp_path / "bad.spec", tmp_path / "out"
        spec_path.write_text(TINY_SPEC.replace("seed = 99", "seed = -1" if via == "spec" else ""))
        flags = ["--seed", "-5"] if via == "flag" else []
        code = run_cli(["experiment", str(spec_path), "--out", str(out_dir), "--records", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: seed " in captured.err and "variation" not in captured.err
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
