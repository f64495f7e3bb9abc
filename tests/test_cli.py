import argparse
import json
import struct

import pytest

from dcan.cli import ABLATION_ROWS, main
from dcan.model import DcaModel


TINY = {
    "backbone": {"input_size": 16, "blocks": [[4, 2], [8, 2]]},
    "head": {"hidden_units": 8},
    "clahe": {"tiles": 2},
    "synthetic": {"count": 20, "size": 16, "seed": 11},
    "epochs": 1,
    "batch_size": 8,
    "k_folds": 2,
    "seed": 11,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus + trained folds produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = dict(TINY, data_dir=str(root / "data"), output_dir=str(root / "out"))
    config_path = root / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert main(["gen", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    return root, config_path


class TestTrain:
    def test_report_and_checkpoints(self, workspace):
        root, _ = workspace
        out = root / "out"
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "fold,accuracy,precision,recall,f1,kappa"
        assert len(lines) == 2 + TINY["k_folds"]
        assert lines[-1].startswith("mean±std,")
        for fold in range(TINY["k_folds"]):
            assert (out / f"fold_{fold}.dcam").stat().st_size > 0

    def test_byte_identical_rerun(self, workspace):
        root, config_path = workspace
        assert main(["train", "--config", str(config_path),
                     "--out", str(root / "out2")]) == 0
        assert ((root / "out" / "report.csv").read_bytes()
                == (root / "out2" / "report.csv").read_bytes())

    def test_thread_count_does_not_change_report(self, workspace, monkeypatch):
        root, config_path = workspace
        monkeypatch.setenv("DCA_THREADS", "2")
        assert main(["train", "--config", str(config_path),
                     "--out", str(root / "out_threads")]) == 0
        assert ((root / "out" / "report.csv").read_bytes()
                == (root / "out_threads" / "report.csv").read_bytes())

    def test_no_stray_temp_files(self, workspace):
        root, _ = workspace
        assert not list((root / "out").glob(".report.csv.*"))


class TestEval:
    def test_writes_report(self, workspace, capsys):
        root, config_path = workspace
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(root / "out" / "fold_0.dcam")]) == 0
        assert "accuracy=" in capsys.readouterr().out
        lines = (root / "out" / "eval_report.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header, one fold, summary

    @pytest.mark.parametrize("name, index, value", [("backbone0_w", 0, float("nan")),
                                                     ("head_b2", -1, float("inf"))])
    def test_non_finite_checkpoint_is_one_located_line(self, workspace, tmp_path, capsys,
                                                       name, index, value):
        root, config_path = workspace
        model = DcaModel.load(root / "out" / "fold_0.dcam")
        model.params[name].data.flat[index] = value
        bad = tmp_path / "bad.dcam"
        model.save(bad)
        data = bad.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", data, 8)
        # the first value of the first blob, or the last value of the last one
        off = 12 + cfg_len + 8 if index == 0 else len(data) - 8
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: CheckpointError: {bad}: byte {off}: "
                                           f"{name} holds a non-finite value\n")
        assert not (tmp_path / "out" / "eval_report.csv").exists()

    def test_missing_checkpoint_fails(self, workspace, capsys):
        root, config_path = workspace
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(root / "nope.dcam")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAblate:
    def test_csv_has_exactly_three_variant_rows(self, workspace):
        root, config_path = workspace
        assert main(["ablate", "--config", str(config_path)]) == 0
        lines = (root / "out" / "ablation.csv").read_text().strip().split("\n")
        assert lines[0].startswith("spatial,gated,refinement,")
        assert len(lines) == 1 + len(ABLATION_ROWS)
        toggles = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert toggles == [("1", "0", "0"), ("0", "1", "0"), ("1", "1", "1")]
        for line in lines[1:]:
            assert line.count("±") == 5


class TestExplain:
    def test_writes_overlays(self, workspace, capsys):
        root, config_path = workspace
        image = sorted((root / "data" / "abnormal").glob("*.ppm"))[0]
        assert main(["explain", "--config", str(config_path),
                     "--checkpoint", str(root / "out" / "fold_0.dcam"),
                     "--image", str(image)]) == 0
        assert "predicted class" in capsys.readouterr().out
        out = root / "out"
        for name in ("gradcam", "f_s", "f_g", "f_c", "f_a", "f_r"):
            assert (out / f"{name}.ppm").stat().st_size > 0
        assert (out / "gradcam.pgm").stat().st_size > 0

    def test_one_forward_per_image(self, workspace, monkeypatch):
        # the backbone count also catches a second pass that bypasses forward
        root, config_path = workspace
        calls = {"forward": 0, "backbone_forward": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(DcaModel, name), **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(DcaModel, name, counted)
        image = sorted((root / "data" / "normal").glob("*.ppm"))[0]
        assert main(["explain", "--config", str(config_path),
                     "--checkpoint", str(root / "out" / "fold_0.dcam"),
                     "--image", str(image), "--out", str(root / "explain_once")]) == 0
        assert calls == {"forward": 1, "backbone_forward": 1}

    def test_image_smaller_than_tile_grid_names_the_file(self, workspace, tmp_path, capsys):
        root, config_path = workspace
        image = tmp_path / "small.ppm"
        image.write_bytes(b"P5\n1 3\n255\n" + bytes(3))
        assert main(["explain", "--config", str(config_path),
                     "--checkpoint", str(root / "out" / "fold_0.dcam"),
                     "--image", str(image), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: ValueError: {image}: "
                                           f"tile grid 2x2 larger than 1x3 image\n")


def test_main_reuses_one_parser_for_different_subcommands(workspace, tmp_path, monkeypatch):
    root, config_path = workspace
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        seen.append((self, namespace.command, getattr(namespace, "checkpoint", None)))
        return namespace

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    gen_config = tmp_path / "config.json"
    gen_config.write_text(json.dumps(dict(TINY, data_dir=str(tmp_path / "data"))))
    checkpoint = str(root / "out" / "fold_0.dcam")
    assert main(["eval", "--config", str(config_path), "--checkpoint", checkpoint]) == 0
    assert main(["gen", "--config", str(gen_config)]) == 0
    (first, *_), (second, *_) = seen
    assert first is second
    assert [entry[1:] for entry in seen] == [("eval", checkpoint), ("gen", None)]


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "gradient check passed" in capsys.readouterr().out


class TestFailurePaths:
    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = dict(TINY, data_dir=str(tmp_path / "absent"),
                   output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_truncated_image_is_one_located_line(self, tmp_path, monkeypatch, capsys, threads):
        cfg = dict(TINY, data_dir=str(tmp_path / "data"), output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path)]) == 0
        image = tmp_path / "data" / "normal" / "normal_00019.ppm"
        image.write_bytes(image.read_bytes()[:-7])
        monkeypatch.setenv("DCA_THREADS", threads)
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: ImageFormatError: {image}: truncated payload "
                                           f"at byte 774: need 768 bytes, have 761\n")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["gen", "--config", str(path)]) == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_invalid_thread_count_is_an_error(self, workspace, monkeypatch, capsys, value):
        root, config_path = workspace
        monkeypatch.setenv("DCA_THREADS", value)
        assert main(["eval", "--config", str(config_path),
                     "--checkpoint", str(root / "out" / "fold_0.dcam")]) == 1
        assert capsys.readouterr().err == (f"error: ValueError: DCA_THREADS must be a "
                                           f"positive integer, got {value!r}\n")

    def test_malformed_config_is_one_located_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"clahe": 5}))
        assert main(["gen", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: ValueError: {path}: 'clahe' must be "
                                           f"dict, got int\n")

    def test_negative_seed_override_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY, data_dir=str(tmp_path / "data"))))
        assert main(["gen", "--config", str(path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: ValueError: 'seed' must be >= 0, got -1\n"
        assert not (tmp_path / "data").exists()

    def test_seed_override_changes_corpus(self, tmp_path):
        cfg = dict(TINY, data_dir=str(tmp_path / "d1"), synthetic={"count": 4, "size": 16})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path), "--seed", "1"]) == 0
        cfg["data_dir"] = str(tmp_path / "d2")
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path), "--seed", "2"]) == 0
        a = sorted((tmp_path / "d1").rglob("*.ppm"))
        b = sorted((tmp_path / "d2").rglob("*.ppm"))
        assert any(x.read_bytes() != y.read_bytes() for x, y in zip(a, b))
