"""Smoke tests for the ``repro-serve`` console entry point."""

from __future__ import annotations

import json

import pytest

from repro.server.cli import build_parser, main


class TestHelpAndListing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-serve" in out
        assert "--preconditioner" in out

    def test_list_matrices(self, capsys):
        assert main(["--list-matrices"]) == 0
        out = capsys.readouterr().out
        assert "2DFDLaplace_16" in out
        assert "PDD_RealSparse_N64" in out

    def test_missing_matrix_is_an_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0

    def test_unknown_matrix_is_an_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["not_a_matrix"])
        assert excinfo.value.code != 0


class TestServing:
    def test_solves_registry_matrix_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code = main(["PDD_RealSparse_N64", "--repeat", "2", "--rhs", "random",
                     "--maxiter", "300", "--json", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "telemetry" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["responses"]) == 2
        assert all(r["converged"] for r in payload["responses"])
        assert payload["telemetry"]["counters"]["solves_total"] == 2
        assert payload["responses"][0]["provenance"]["origin"]

    def test_explicit_solver_and_preconditioner(self, capsys):
        code = main(["PDD_RealSparse_N64", "--solver", "gmres",
                     "--preconditioner", "jacobi", "--maxiter", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jacobi" in out
        assert "origin=explicit" in out

    def test_not_converged_prints_the_reason(self, capsys):
        code = main(["2DFDLaplace_16", "--preconditioner", "none",
                     "--maxiter", "2"])
        assert code == 1  # served but not converged
        assert "NOT CONVERGED (maxiter) in 2 iterations" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["2DFDLaplace_16"])
        assert args.rhs == "ones"
        assert args.preconditioner == "auto"
        assert args.repeat == 1
        assert args.http is False


class TestErrorEnvelopeExit:
    def test_admission_rejection_exits_nonzero_with_envelope(self, capsys):
        # rtol=2.0 passes argparse but is shed at the admission boundary;
        # the CLI must exit non-zero with the typed envelope, not a
        # traceback.
        code = main(["PDD_RealSparse_N64", "--rtol", "2.0"])
        assert code == 2
        err = capsys.readouterr().err
        envelope = json.loads(err)
        assert envelope["code"] == "invalid"
        assert envelope["kind"] == "error"
        assert "rtol" in envelope["message"]

    def test_unknown_preconditioner_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["PDD_RealSparse_N64", "--preconditioner", "amg"])
        assert excinfo.value.code != 0


class TestHTTPMode:
    def test_http_parser_flags(self):
        args = build_parser().parse_args(["--http", "--port", "0",
                                          "--host", "0.0.0.0"])
        assert args.http is True
        assert args.port == 0
        assert args.host == "0.0.0.0"

    def test_http_with_matrix_argument_is_an_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--http", "2DFDLaplace_16"])
        assert excinfo.value.code != 0

    def test_http_with_one_shot_flags_is_an_error(self):
        # --json etc. would be silently ignored by the wire server; the CLI
        # must refuse instead.
        for flags in (["--json", "out.json"], ["--repeat", "3"],
                      ["--rhs", "random"], ["--rtol", "1e-6"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["--http", "--port", "0", *flags])
            assert excinfo.value.code != 0
