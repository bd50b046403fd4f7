"""Command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.engine import reset_compile_caches
from repro.explore.tuner import TunerConfig
from repro.obs import CompareThresholds
from repro.obs import logging as logging_mod


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_operator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mappings", "NOPE"])

    def test_bad_params_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mappings", "GMM", "--params", "m8"])
        assert exc.value.code == 2  # argparse usage-error exit status
        err = capsys.readouterr().err
        assert "expected k=v" in err
        assert "usage:" in err  # parser.error prints the subcommand usage

    def test_non_integer_param_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mappings", "GMM", "--params", "m=eight"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err
        assert "usage:" in err

    def test_bad_params_rejected_on_compile(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "GMM", "--params", "m"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected k=v" in err
        assert "repro compile" in err  # usage names the failing subcommand


class TestTuningFlagBounds:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["compile", "GMM", "--params", "m=64", "n=64", "k=64"]
        )
        assert args.elite_fraction == 0.25
        assert args.mapping_mutation_prob == 0.15

    def test_valid_values_accepted(self):
        args = build_parser().parse_args([
            "compile", "GMM", "--params", "m=64", "n=64", "k=64",
            "--elite-fraction", "0.5", "--mapping-mutation-prob", "0.0",
        ])
        assert args.elite_fraction == 0.5
        assert args.mapping_mutation_prob == 0.0

    def test_elite_fraction_zero_rejected(self, capsys):
        # (0, 1]: an elite fraction of zero would leave no parents at all.
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--elite-fraction", "0.0",
            ])
        assert exc.value.code == 2
        assert "not in (0, 1]" in capsys.readouterr().err

    def test_mutation_prob_above_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--mapping-mutation-prob", "1.5",
            ])
        assert exc.value.code == 2
        assert "not in [0, 1]" in capsys.readouterr().err

    def test_non_numeric_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--elite-fraction", "lots",
            ])
        assert exc.value.code == 2
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--workers", "0", "below the minimum 1"),
            ("--workers", "-2", "below the minimum 1"),
            ("--workers", "two", "not an integer"),
            # The runtime divergence check, the pool's retry budget and
            # its batch deadline are gone: any value is a usage error.
            # (The ids are the ones these cases had when the flags
            # checked their bounds.)
            *(
                pytest.param(flag, value, f"unrecognized arguments: {flag}", id=case)
                for flag, value, case in (
                    ("--divergence-rate", "2", "--divergence-rate-2-not in [0, 1]"),
                    ("--divergence-rate", "-0.1", "--divergence-rate--0.1-not in [0, 1]"),
                    ("--max-retries", "-1", "--max-retries--1-below the minimum 0"),
                    ("--eval-timeout", "0", "--eval-timeout-0-not a positive finite number"),
                    ("--eval-timeout", "-1", "--eval-timeout--1-not a positive finite number"),
                    ("--eval-timeout", "nan", "--eval-timeout-nan-not a positive finite number"),
                    ("--eval-timeout", "inf", "--eval-timeout-inf-not a positive finite number"),
                    ("--eval-timeout", "soon", "--eval-timeout-soon-not a number"),
                )
            ),
        ],
    )
    def test_execution_flags_out_of_range_rejected(self, capsys, flag, value, message):
        # Rejected at parse time with a usage message, not mid-compile
        # with a traceback.
        with pytest.raises(SystemExit) as exc:
            main(["compile", "GMM", "--params", "m=64", "n=64", "k=64", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_execution_flag_bounds_inclusive(self):
        args = build_parser().parse_args([
            "compile", "GMM", "--params", "m=64", "n=64", "k=64",
            "--workers", "1",
        ])
        assert args.workers == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            # -1 crashed in time.sleep; 0 busy-looped.
            (["watch", "runs", "--interval", "-1"], "not a positive finite number"),
            (["watch", "runs", "--interval", "0"], "not a positive finite number"),
            (["watch", "runs", "--interval", "nan"], "not a positive finite number"),
            # 0 ended in a ValueError traceback.
            (["network", "resnet18", "--batch", "0"], "below the minimum 1"),
            (["network", "resnet18", "--batch", "-4"], "below the minimum 1"),
        ],
    )
    def test_command_numeric_flags_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_fault_policy_rejects_bad_eval_timeout(self, capsys, timeout):
        # No deadline exists to set: the flag is a usage error for every
        # value, and library callers get a TypeError.
        for value in (str(timeout), "2.5"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                    "--eval-timeout", value,
                ])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "unrecognized arguments: --eval-timeout" in err
        with pytest.raises(TypeError, match="eval_timeout_s"):
            TunerConfig(eval_timeout_s=timeout)


    @pytest.mark.parametrize(
        "flag,value,message",
        [
            # nan and inf switch the gate off: no drift exceeds them.
            ("--max-latency-increase", "nan", "not a finite number >= 0"),
            ("--max-latency-increase", "inf", "not a finite number >= 0"),
            ("--max-latency-increase", "-0.1", "not a finite number >= 0"),
            ("--max-throughput-drop", "nan", "not a finite number >= 0"),
            ("--max-throughput-drop", "-1", "not a finite number >= 0"),
            ("--max-accuracy-drop", "inf", "not a finite number >= 0"),
            ("--max-accuracy-drop", "lots", "not a number"),
            ("--history", "0", "below the minimum 1"),
            ("--history", "-3", "below the minimum 1"),
        ],
    )
    def test_report_gate_flags_rejected(self, capsys, tmp_path, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--compare", str(tmp_path), str(tmp_path), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_report_gate_flag_bounds_inclusive(self, tmp_path):
        args = build_parser().parse_args([
            "report", "--compare", str(tmp_path), str(tmp_path),
            "--max-latency-increase", "0", "--max-throughput-drop", "0.5",
            "--max-accuracy-drop", "0.0", "--history", "1",
        ])
        assert (args.max_latency_increase, args.max_accuracy_drop) == (0.0, 0.0)
        assert args.history == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.01])
    @pytest.mark.parametrize(
        "field", ["max_latency_increase", "max_throughput_drop", "max_accuracy_drop"]
    )
    def test_compare_thresholds_reject_gate_off_values(self, field, value):
        # The same check for library callers that bypass the CLI.
        with pytest.raises(ValueError, match=field):
            CompareThresholds(**{field: value})
        assert getattr(CompareThresholds(**{field: 0.0}), field) == 0.0


class TestCommands:
    def test_list_hardware(self, capsys):
        assert main(["list-hardware"]) == 0
        out = capsys.readouterr().out
        assert "v100" in out and "mali_g76" in out

    def test_list_intrinsics_filtered(self, capsys):
        assert main(["list-intrinsics", "--target", "tensorcore"]) == 0
        out = capsys.readouterr().out
        assert "wmma_m16n16k16_f16" in out
        assert "mali" not in out

    def test_mappings_gemm(self, capsys):
        assert main(["mappings", "GMM", "--params", "m=32", "n=32", "k=32"]) == 0
        out = capsys.readouterr().out
        assert "total: 3" in out  # one mapping per WMMA shape
        assert "[i1, i2, r1]" in out

    def test_mappings_single_intrinsic(self, capsys):
        assert main([
            "mappings", "C2D", "--intrinsic", "wmma_m16n16k16_f16",
            "--params", "n=1", "c=4", "k=4", "h=6", "w=6", "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "35 valid mappings" in out
        assert "... 33 more" in out

    def test_compile_small(self, capsys):
        assert main([
            "compile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated latency" in out
        assert "mapping:" in out

    def test_compile_logs_every_generation_at_info(self, monkeypatch):
        """At INFO the tuner's progress lines all reach the stream: one
        ``generation`` record per GA generation plus the final
        population (9 for the default budget), none rate-limited, and
        no suppressed tally left for the exit flush."""
        stream = io.StringIO()
        monkeypatch.delenv(logging_mod.ENV_LEVEL, raising=False)
        monkeypatch.setattr(logging_mod, "_stream", stream)
        monkeypatch.setattr(logging_mod, "_level", None)
        reset_compile_caches()
        assert main(["compile", "GMM", "--params", "m=64", "n=64", "k=64"]) == 0
        logging_mod.flush_suppressed()
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        generations = [r for r in records if r["msg"] == "generation"]
        expected = TunerConfig().generations + 1
        assert [r.get("generation") for r in generations] == list(range(expected))
        assert not any("suppressed" in r for r in records)

    def test_compile_with_source(self, capsys):
        assert main([
            "compile", "GMM", "--hardware", "v100", "--source",
            "--params", "m=64", "n=64", "k=64",
        ]) == 0
        assert "wmma::mma_sync" in capsys.readouterr().out

    def test_network_with_baseline(self, capsys):
        assert main([
            "network", "mi_lstm", "--hardware", "v100",
            "--baseline", "pytorch",
        ]) == 0
        out = capsys.readouterr().out
        assert "mi_lstm on v100" in out
        assert "speedup" in out


class TestProfile:
    def test_profile_writes_trace_and_prints_report(self, capsys, tmp_path):
        import repro.obs as obs
        from repro.obs import events as obs_events

        run_dir = tmp_path / "prof"
        assert main([
            "profile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64", "--run-dir", str(run_dir),
        ]) == 0
        report = capsys.readouterr().out
        # The four report sections the acceptance criteria name.
        assert "span timings" in report
        assert "mapping funnel" in report
        assert "genetic search convergence" in report
        assert "pairwise rank accuracy" in report
        assert "tuner.tune" in report
        assert "(no genetic-search generations recorded)" not in report
        # Profiling must not leave observability enabled behind.
        assert not obs.enabled()
        assert not obs_events.events_enabled()

        # The run's record is a manifest plus a live event stream.
        assert len(list(run_dir.glob("run_*.json"))) == 1
        assert len(list(run_dir.glob("events_*.jsonl"))) == 1
        ((run, state),) = obs.load_run_views(run_dir)
        assert run.operator == "gemm"
        assert run.phases
        assert run.model_quality["num_samples"] >= 2
        assert state.generations and state.ended["status"] == "ok"
        funnel = run.funnel
        assert funnel["enumerated"] >= funnel["validated"] >= funnel["measured"] >= 1

    def test_report_rerenders_saved_trace(self, capsys, tmp_path):
        run_dir = tmp_path / "prof"
        assert main([
            "profile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64", "--run-dir", str(run_dir),
        ]) == 0
        profile_out = capsys.readouterr().out
        assert main(["report", str(run_dir)]) == 0
        report_out = capsys.readouterr().out
        # The report command reproduces the profile's report verbatim
        # (profile additionally prints the run dir afterwards), from the
        # run dir or from the manifest itself.
        assert report_out.strip() in profile_out
        assert profile_out.startswith(report_out.strip())
        (manifest,) = run_dir.glob("run_*.json")
        assert main(["report", str(manifest)]) == 0
        assert capsys.readouterr().out == report_out

    def test_profile_defaults_run_dir_and_renders_only_its_run(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["profile", "GMM", "--params", "m=64", "n=64", "k=64", "--quick"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        run_dir = tmp_path / "profile_GMM_v100"
        assert len(list(run_dir.glob("run_*.json"))) == 1
        assert main([*argv, "--seed", "1"]) == 0
        second = capsys.readouterr().out
        assert len(list(run_dir.glob("run_*.json"))) == 2
        # Each profile renders its own run; `report DIR` renders both.
        assert second.count("== AMOS profile:") == 1
        assert main(["report", str(run_dir)]) == 0
        assert capsys.readouterr().out.count("== AMOS profile:") == 2
        assert first.count("== AMOS profile:") == 1

    def test_profile_out_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "profile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--out", str(tmp_path / "trace.jsonl"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("what", ["missing", "empty_dir", "old_trace"])
    def test_report_without_a_manifest_exits_2(self, capsys, tmp_path, what):
        path = tmp_path / "nope"
        if what == "empty_dir":
            path.mkdir()
        elif what == "old_trace":
            path = tmp_path / "profile_GMM_v100.jsonl"
            path.write_text('{"type": "meta", "operator": "gemm"}\n{"type": "span"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"no run manifest at {str(path)!r}" in err

