"""CLI entry points."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.k == 100
        assert args.iterations == 5

    def test_compare_method_list(self):
        args = build_parser().parse_args(["compare", "--methods", "qcluster,falcon"])
        assert args.methods == "qcluster,falcon"


class TestCommands:
    def test_disjunctive_smoke(self, capsys):
        exit_code = main(["disjunctive", "--points", "2000", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "agreement with the two-ball ground truth" in output

    def test_demo_smoke(self, capsys):
        exit_code = main(
            [
                "demo",
                "--categories", "4",
                "--images-per-category", "20",
                "--iterations", "2",
                "--k", "20",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "iteration" in output
        assert output.count("\n") >= 4  # header + 3 iterations

    def test_compare_smoke(self, capsys):
        exit_code = main(
            [
                "compare",
                "--categories", "4",
                "--images-per-category", "20",
                "--iterations", "1",
                "--k", "20",
                "--queries", "2",
                "--methods", "qcluster,qpm",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "qcluster" in output
        assert "qpm" in output

    def test_compare_unknown_method(self, capsys):
        exit_code = main(
            ["compare", "--methods", "banana", "--categories", "2",
             "--images-per-category", "5"]
        )
        assert exit_code == 2
        assert "unknown methods" in capsys.readouterr().err


class TestServiceCommand:
    def test_service_smoke(self, capsys):
        """create → query → feedback → metrics snapshot via the CLI path."""
        exit_code = main(
            [
                "service",
                "--users", "3",
                "--categories", "4",
                "--images-per-category", "15",
                "--iterations", "2",
                "--k", "10",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sessions/sec" in output
        assert "sessions_created" in output
        assert "sessions_closed" in output
        assert "feedbacks" in output
        assert "cache_hit_rate" in output
        assert "degradations" in output
        # Latency stages of the snapshot are printed too.
        assert "query" in output and "feedback" in output

    def test_service_single_user(self, capsys):
        exit_code = main(
            [
                "service",
                "--users", "1",
                "--categories", "3",
                "--images-per-category", "10",
                "--iterations", "1",
                "--k", "5",
            ]
        )
        assert exit_code == 0
        assert "served 1 sessions" in capsys.readouterr().out

    def test_service_defaults(self):
        args = build_parser().parse_args(["service"])
        assert args.users == 8
        assert args.capacity == 256
        assert args.cache_size == 128
        assert args.deadline is None


class TestChaosCommand:
    CHAOS_SMALL = [
        "chaos",
        "--categories", "4",
        "--images-per-category", "20",
        "--iterations", "2",
        "--k", "10",
        "--sessions", "3",
        "--shards", "2",
    ]

    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.plan == "worker-crash"
        assert args.fault_seed == 0
        assert args.capacity == 2
        assert not args.use_index

    def test_unknown_plan_lists_builtins(self, capsys):
        exit_code = main(["chaos", "--plan", "nope"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "unknown plan" in err
        assert "worker-crash" in err

    @pytest.mark.parametrize(
        "plan", ["worker-crash", "slow-shard", "corrupt-checkpoint"]
    )
    def test_builtin_plans_uphold_the_contract(self, capsys, plan):
        exit_code = main(self.CHAOS_SMALL + ["--plan", plan])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert f"plan: {plan}" in output
        assert "resilience contract holds" in output

    def test_plan_round_trips_through_a_file(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        exit_code = main(
            self.CHAOS_SMALL + ["--plan", "worker-crash", "--save-plan", str(plan_path)]
        )
        assert exit_code == 0
        assert plan_path.exists()
        exit_code = main(self.CHAOS_SMALL + ["--plan-file", str(plan_path)])
        assert exit_code == 0
        assert "resilience contract holds" in capsys.readouterr().out


class TestFigureCommand:
    def test_fig5(self, capsys):
        exit_code = main(["figure", "fig5"])
        assert exit_code == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        exit_code = main(["figure", "fig99"])
        assert exit_code == 2
        assert "unknown figure id" in capsys.readouterr().err

    def test_csv_export(self, capsys, tmp_path):
        exit_code = main(["figure", "fig5", "--csv", str(tmp_path)])
        assert exit_code == 0
        assert (tmp_path / "fig5.csv").exists()

    def test_table2_produces_both_schemes(self, capsys):
        exit_code = main(["figure", "table2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "inverse" in output
        assert "diagonal" in output


class TestExportCollection:
    def test_round_trip_through_disk(self, capsys, tmp_path):
        exit_code = main(
            [
                "export-collection", str(tmp_path / "corel"),
                "--categories", "3",
                "--images-per-category", "4",
                "--image-size", "10",
            ]
        )
        assert exit_code == 0
        assert "wrote 12 images" in capsys.readouterr().out

        from repro.datasets import load_directory_collection

        images, labels, names = load_directory_collection(tmp_path / "corel")
        assert len(images) == 12
        assert names == ["category_000", "category_001", "category_002"]
        assert images[0].shape == (10, 10)


class TestStoreCommand:
    BUILD_SMALL = [
        "store", "build",
        "--categories", "3",
        "--images-per-category", "10",
        "--seed", "7",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(self.BUILD_SMALL + ["--output", "x.qcs"])
        assert args.store_command == "build"
        assert args.shards is None
        assert args.coarse_dims == 0

    def test_chaos_store_flag(self):
        args = build_parser().parse_args(["chaos", "--plan", "torn-block", "--store"])
        assert args.store is True
        assert not build_parser().parse_args(["chaos"]).store

    def test_build_verify_inspect_round_trip(self, capsys, tmp_path):
        import json

        path = tmp_path / "cli.qcs"
        exit_code = main(self.BUILD_SMALL + ["--output", str(path), "--shards", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shards=3" in output
        assert "fingerprint:" in output

        assert main(["store", "verify", str(path)]) == 0
        assert "blocks verified" in capsys.readouterr().out

        assert main(["store", "inspect", str(path)]) == 0
        description = json.loads(capsys.readouterr().out)
        assert description["n"] == 30
        assert description["n_shards"] == 3
        assert {entry["name"] for entry in description["blocks"]} >= {
            "shard/0000", "shard/0001", "shard/0002", "labels",
        }

    def test_build_with_coarse_companions(self, capsys, tmp_path):
        path = tmp_path / "coarse.qcs"
        exit_code = main(
            self.BUILD_SMALL + ["--output", str(path), "--coarse-dims", "2"]
        )
        assert exit_code == 0
        assert "coarse_dims=2" in capsys.readouterr().out

    def test_build_rejects_oversized_coarse_dims(self, capsys, tmp_path):
        exit_code = main(
            self.BUILD_SMALL
            + ["--output", str(tmp_path / "bad.qcs"), "--coarse-dims", "99"]
        )
        assert exit_code == 2
        assert "cannot build store" in capsys.readouterr().err

    def test_verify_flags_corruption(self, capsys, tmp_path):
        path = tmp_path / "corrupt.qcs"
        assert main(self.BUILD_SMALL + ["--output", str(path), "--shards", "2"]) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # damage the final block's payload
        path.write_bytes(bytes(data))
        assert main(["store", "verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert "crc_mismatch" in captured.out + captured.err

    def test_inspect_rejects_non_store(self, capsys, tmp_path):
        junk = tmp_path / "junk.qcs"
        junk.write_bytes(b"not a store")
        assert main(["store", "inspect", str(junk)]) == 1
        assert "invalid store" in capsys.readouterr().err

    def test_torn_block_chaos_over_a_real_store(self, capsys):
        exit_code = main(
            [
                "chaos",
                "--plan", "torn-block",
                "--store",
                "--categories", "3",
                "--images-per-category", "15",
                "--iterations", "2",
                "--k", "10",
                "--sessions", "3",
                "--shards", "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resilience contract holds" in output


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_concurrent == 64
        assert args.batch_size == 32
        assert not hasattr(args, "batch_wait_ms")
        assert args.shed_threshold is None
        assert not args.no_batching
        assert not args.use_index
        assert not args.self_test

    @pytest.mark.parametrize(
        "options, named",
        [
            (["--shed-threshold", "4"], "--ann"),
            (["--ann", "--shed-threshold", "300"], "max_pending"),
        ],
    )
    def test_shed_threshold_is_rejected_before_binding(
        self, capsys, monkeypatch, options, named
    ):
        """A threshold that cannot shed (no ANN tier to shed to, or at
        or past the backpressure bound) is a usage error, not a server."""
        import repro.service

        def no_server(*args, **kwargs):
            raise AssertionError("the server must not be built")

        monkeypatch.setattr(repro.service, "RetrievalServer", no_server)
        exit_code = main(
            ["serve", "--port", "0", "--categories", "2", "--images-per-category", "5"]
            + options
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err.strip().splitlines()) == 1

    def test_self_test_runs_the_closed_loop_load(self, capsys):
        exit_code = main(
            [
                "serve",
                "--port", "0",
                "--self-test",
                "--categories", "4",
                "--images-per-category", "20",
                "--k", "10",
                "--loadgen-sessions", "6",
                "--loadgen-rounds", "2",
                "--max-concurrent", "8",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "qps" in output
        assert "batches" in output
        assert "errors=0" in output

    def test_self_test_unbatched(self, capsys):
        exit_code = main(
            [
                "serve",
                "--port", "0",
                "--self-test",
                "--no-batching",
                "--categories", "3",
                "--images-per-category", "15",
                "--k", "10",
                "--loadgen-sessions", "3",
                "--loadgen-rounds", "1",
            ]
        )
        assert exit_code == 0
        assert "qps" in capsys.readouterr().out


class TestBatchAbortChaos:
    def test_parser_has_batching_flag(self):
        args = build_parser().parse_args(["chaos", "--batching"])
        assert args.batching

    def test_batch_abort_chaos_upholds_the_contract(self, capsys):
        exit_code = main(
            [
                "chaos",
                "--plan", "batch-abort",
                "--batching",
                "--categories", "3",
                "--images-per-category", "15",
                "--iterations", "2",
                "--k", "10",
                "--sessions", "3",
                "--shards", "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "plan: batch-abort" in output
        assert "resilience contract holds" in output
