"""The difftest campaign loop and its planted-bug self-check."""

import json

import pytest

from repro.difftest import run_difftest, self_check
from repro.obs.tracer import Tracer


class TestRunDifftest:
    def test_small_campaign_is_clean(self):
        report = run_difftest(seed=0, budget=6, size=6)
        assert report.clean
        assert report.cases_run == 6
        assert report.pairs_run["engine"] == 6
        # Thinned axes ran on their schedule, not on every case.
        assert report.pairs_run["batched"] == 3
        assert report.pairs_run["cache"] == 2
        assert report.pairs_run["shards"] == 1

    def test_report_round_trips_to_json(self):
        report = run_difftest(seed=0, budget=3, size=6,
                              axes=("engine",))
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["cases_run"] == 3
        assert payload["divergences"] == []
        assert "engine" in payload["pairs_run"]

    def test_lang_and_machine_filters(self):
        report = run_difftest(
            seed=0, budget=4, size=6, langs=("yalll",),
            machines=("VM1",), axes=("engine",),
        )
        assert report.clean
        assert report.langs == ("yalll",)
        assert report.machines == ("VM1",)

    def test_metrics_tally_cases_and_pairs(self):
        report = run_difftest(seed=0, budget=6, size=6)
        tallies = report.metrics.difftest
        assert int(tallies.get("cases")) == report.cases_run
        for axis, pairs in report.pairs_run.items():
            assert int(tallies.get(f"pairs.{axis}")) == pairs
        assert not any(str(k).startswith("divergences.")
                       for k in tallies.data)
        payload = report.to_json()
        assert payload["metrics"]["difftest"]["cases"] == report.cases_run

    def test_refused_pairs_are_skipped_and_listed(self):
        """ID3200m's four allocatable registers are too few for some
        generators: those (lang, machine) pairs are refused by type,
        skipped, counted and listed — never a crash."""
        report = run_difftest(seed=0, budget=6, size=6,
                              machines=("ID3200m",), axes=("engine",))
        assert report.clean
        refused = {lang for lang, _ in report.refused}
        assert refused == {"mpl", "simpl", "sstar"}
        assert report.cases_run + sum(
            cases for _, cases in report.refused.values()) == 6
        assert int(report.metrics.difftest.get("refused")) == 3
        payload = json.loads(json.dumps(report.to_json()))
        assert [(r["lang"], r["machine"], r["cases"])
                for r in payload["refused"]] == [
            ("mpl", "ID3200m", 1), ("simpl", "ID3200m", 1),
            ("sstar", "ID3200m", 1),
        ]
        assert "register pool too small" in payload["refused"][0]["reason"]
        assert "refused: simpl on ID3200m" in report.render()

    def test_case_events_are_traced(self):
        tracer = Tracer()
        run_difftest(seed=0, budget=2, size=6, axes=("engine",),
                     tracer=tracer)
        names = [e.name for e in tracer.events]
        assert names.count("difftest.case") == 2
        assert "difftest.divergence" not in names


class TestSelfCheck:
    def test_planted_bug_found_and_shrunk(self, tmp_path):
        report = self_check(seed=0, budget=3, size=8)
        assert report.divergences
        first = report.divergences[0]
        assert first.axis == "engine"
        assert first.reduced_source
        assert len(first.reduced_source) <= len(first.case.source)

    def test_divergences_reach_the_corpus_dir(self, tmp_path):
        """A divergent campaign writes self-contained reproducers."""
        import repro.sim.decode as decode

        decode.PLANT_XOR = 1
        try:
            report = run_difftest(
                seed=0, budget=2, size=6, axes=("engine",),
                corpus_dir=tmp_path, reduce=False,
            )
        finally:
            decode.PLANT_XOR = 0
        assert not report.clean
        files = sorted(tmp_path.glob("div-*.json"))
        assert len(files) == len(report.divergences)
        payload = json.loads(files[0].read_text())
        assert payload["axis"] == "engine"
        assert payload["source"]
        assert "--seed" in payload["repro"]

    def test_repro_commands_regenerate_their_case(self, tmp_path):
        """A corpus file's command, parsed as the CLI parses it, reruns
        a campaign whose last case is the reported one, source for
        source — for a non-zero campaign seed and later indices."""
        import shlex

        import repro.sim.decode as decode
        from repro.cli import build_parser

        decode.PLANT_XOR = 1
        try:
            report = run_difftest(
                seed=1, budget=4, size=6, axes=("engine",),
                corpus_dir=tmp_path, reduce=False,
            )
            payloads = [json.loads(path.read_text())
                        for path in sorted(tmp_path.glob("div-*.json"))]
            assert max(payload["index"] for payload in payloads) > 0
            for payload in payloads:
                argv = shlex.split(payload["repro"])
                assert argv[:3] == ["python", "-m", "repro"]
                args = build_parser().parse_args(argv[3:])
                rerun = run_difftest(
                    seed=args.seed, budget=args.budget,
                    langs=tuple(args.langs), machines=tuple(args.machines),
                    axes=tuple(args.axes), size=args.size, reduce=False,
                )
                assert rerun.divergences[-1].case.source \
                    == payload["source"]
        finally:
            decode.PLANT_XOR = 0
        assert len(payloads) == len(report.divergences)

    def test_divergence_events_are_traced(self):
        import repro.sim.decode as decode

        tracer = Tracer()
        decode.PLANT_XOR = 1
        try:
            run_difftest(seed=0, budget=1, size=6, axes=("engine",),
                         reduce=False, tracer=tracer)
        finally:
            decode.PLANT_XOR = 0
        names = [e.name for e in tracer.events]
        assert "difftest.divergence" in names


class TestCLI:
    def test_difftest_verb_clean_run(self, capsys):
        from repro.cli import main

        code = main([
            "difftest", "--seed", "0", "--budget", "3", "--size", "6",
            "--axes", "engine",
        ])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_difftest_verb_json(self, capsys):
        from repro.cli import main

        code = main([
            "difftest", "--seed", "0", "--budget", "2", "--size", "6",
            "--axes", "engine", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases_run"] == 2

    def test_difftest_verb_self_check(self, capsys):
        from repro.cli import main

        code = main(["difftest", "--self-check", "--budget", "3"])
        assert code == 0
        assert "self-check passed" in capsys.readouterr().out
