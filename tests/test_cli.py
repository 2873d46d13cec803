import numpy as np
import pytest

from acre import cli, encoder, ingest, space
from acre.seeding import derive_seed


def run(args):
    return cli.main(args)


def common(ds, out, extra=()):
    return [
        "--manifest", str(ds["manifest"]),
        "--audio-dir", str(ds["audio_dir"]),
        "--out", str(out),
        "--seed", "5",
        *extra,
    ]


def test_embed_writes_dumps(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", *common(wav_dataset, out)]) == 0
    audio = ingest.read_embedding_dump(out / "audio.embd")
    captions = ingest.read_embedding_dump(out / "captions.embd")
    assert len(audio.entries) == 6
    assert len(captions.entries) == 30
    assert audio.dim == 64
    assert "embedded 6 clips" in capsys.readouterr().out


def test_embed_rerun_is_byte_identical(wav_dataset, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["embed", *common(wav_dataset, out1)]) == 0
    assert run(["embed", *common(wav_dataset, out2)]) == 0
    assert (out1 / "audio.embd").read_bytes() == (out2 / "audio.embd").read_bytes()
    assert (out1 / "captions.embd").read_bytes() == (out2 / "captions.embd").read_bytes()


def test_embed_missing_audio_exits_2(wav_dataset, tmp_path, capsys):
    (wav_dataset["audio_dir"] / "clip0.wav").unlink()
    code = run(["embed", *common(wav_dataset, tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "clip0.wav" in err
    assert len(err.strip().splitlines()) == 1


def test_embed_variants(wav_dataset, tmp_path):
    out = tmp_path / "run"
    args = ["embed", *common(wav_dataset, out), "--augmented-captions", str(wav_dataset["augmented"])]
    assert run(args) == 0
    variants = ingest.read_embedding_dump(out / "variants.embd")
    assert len(variants.entries) == 6 * 5 * 5


def test_train_then_evaluate(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    train_args = ["train", *common(wav_dataset, out), "--epochs", "6", "--batch-size", "3", "--lr-max", "1e-2"]
    assert run(train_args) == 0
    assert (out / "checkpoint.ackp").exists()
    loss_lines = (out / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "step,lr,loss"
    assert len(loss_lines) == 1 + 12  # 6 epochs x 2 steps

    eval_args = [
        "evaluate", *common(wav_dataset, tmp_path / "eval"),
        "--checkpoint", str(out / "checkpoint.ackp"),
    ]
    assert run(eval_args) == 0
    text = capsys.readouterr().out
    assert "mAP@10" in text
    metrics = (tmp_path / "eval" / "metrics.csv").read_text()
    assert metrics.splitlines()[0] == "metric,value"


def test_train_rerun_byte_identical(wav_dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["train", *common(wav_dataset, out), "--epochs", "4", "--batch-size", "3"]) == 0
        outs.append(out)
    assert (outs[0] / "checkpoint.ackp").read_bytes() == (outs[1] / "checkpoint.ackp").read_bytes()
    assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()


def test_train_zero_epochs_equals_initialization(wav_dataset, tmp_path):
    out = tmp_path / "run"
    assert run(["train", *common(wav_dataset, out), "--epochs", "0", "--batch-size", "3"]) == 0
    ckpt = space.load_checkpoint(out / "checkpoint.ackp")
    assert ckpt.step == 0
    from acre.seeding import derive_seed

    expected = space.ProjectionHead.initialize(64, 1024, np.random.default_rng(derive_seed(5, "audio-head")))
    assert np.array_equal(ckpt.audio_head.weight, expected.weight.astype(np.float32).astype(np.float64))


def test_finetune_strict_without_augmentations_fails(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", *common(wav_dataset, out), "--epochs", "1", "--batch-size", "3"]) == 0
    code = run(
        [
            "finetune", *common(wav_dataset, tmp_path / "ft"),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--epochs", "1", "--batch-size", "3", "--strict",
        ]
    )
    assert code == 2
    assert "MissingAugmentation" in capsys.readouterr().err


def test_finetune_with_augmentations(wav_dataset, tmp_path):
    out = tmp_path / "run"
    assert run(["train", *common(wav_dataset, out), "--epochs", "2", "--batch-size", "3"]) == 0
    code = run(
        [
            "finetune", *common(wav_dataset, tmp_path / "ft"),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--augmented-captions", str(wav_dataset["augmented"]),
            "--epochs", "2", "--batch-size", "3", "--strict",
        ]
    )
    assert code == 0
    assert (tmp_path / "ft" / "checkpoint.ackp").exists()


def test_dump_encoder_roundtrip(wav_dataset, tmp_path):
    emb = tmp_path / "emb"
    assert run(["embed", *common(wav_dataset, emb)]) == 0
    out = tmp_path / "trained"
    args = [
        "train", *common(wav_dataset, out),
        "--encoder", f"dump:{emb}", "--epochs", "3", "--batch-size", "3",
    ]
    assert run(args) == 0
    # dump-backed and toy-backed training agree because embed is deterministic
    toy_out = tmp_path / "toy"
    assert run(["train", *common(wav_dataset, toy_out), "--epochs", "3", "--batch-size", "3"]) == 0
    a = space.load_checkpoint(out / "checkpoint.ackp")
    b = space.load_checkpoint(toy_out / "checkpoint.ackp")
    assert np.allclose(a.audio_head.weight, b.audio_head.weight, atol=1e-5)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_refuses_checkpoint_beyond_float32(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ids = [f"c{i:02d}.wav" for i in range(64)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
        + "".join(f"{c},a,b,c,d,e\n" for c in ids)
    )
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    ingest.write_embedding_dump([(c, rng.normal(size=16)) for c in ids], dumps / "audio.embd")
    ingest.write_embedding_dump(
        [(f"{c}#{k}", rng.normal(size=12)) for c in ids for k in range(5)], dumps / "captions.embd"
    )
    out = tmp_path / "run"
    # one Adam step moves each weight by about lr: finite in float64, inf in float32
    code = run(
        [
            "train", "--manifest", str(manifest), "--encoder", f"dump:{dumps}", "--out", str(out),
            "--batch-size", "16", "--epochs", "2", "--lr-max", "1e200",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: NonFiniteValue: audio.weight is not finite as float32; checkpoint not written"
    ]
    assert list(out.glob("checkpoint.ackp*")) == []


def test_evaluate_missing_checkpoint_exits_2(wav_dataset, tmp_path, capsys):
    code = run(
        [
            "evaluate", *common(wav_dataset, tmp_path / "eval"),
            "--checkpoint", str(tmp_path / "nope.ackp"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_rank_prints_ordering(wav_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", *common(wav_dataset, out), "--epochs", "6", "--batch-size", "3", "--lr-max", "1e-2"]) == 0
    capsys.readouterr()
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout"),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--query", "a tone of kind 2 sounds loud",
            "--top", "3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "1"


def test_rank_scores_are_projected_cosines(wav_dataset, tmp_path, capsys):
    emb, out = tmp_path / "emb", tmp_path / "run"
    assert run(["embed", *common(wav_dataset, emb)]) == 0
    dump = ["--encoder", f"dump:{emb}"]
    assert run(["train", *common(wav_dataset, out, dump), "--epochs", "2", "--batch-size", "3"]) == 0
    capsys.readouterr()
    query = "a tone of kind 2 sounds loud"
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout", dump),
            "--checkpoint", str(out / "checkpoint.ackp"),
            "--query", query,
            "--top", "6",
        ]
    )
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
    printed = {clip_id: float(score) for _, score, clip_id in rows}

    ckpt = space.load_checkpoint(out / "checkpoint.ackp")
    audio = ingest.read_embedding_dump(emb / "audio.embd").as_dict()
    vocab = encoder.Vocabulary.default()
    params = encoder.EncoderParams(seed=derive_seed(5, "text-encoder"))
    q = encoder.text_encode(encoder.tokenize(encoder.normalize_text(query), vocab), params, len(vocab))
    q = space.project(q, ckpt.text_head)
    assert len(printed) == len(audio) == 6
    for clip_id, vec in audio.items():
        a = space.project(vec, ckpt.audio_head)
        cosine = a @ q / (np.linalg.norm(a) * np.linalg.norm(q))
        assert abs(printed[clip_id] - cosine) <= 5.1e-5  # printed to four decimals
    scores = [float(score) for _, score, _ in rows]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("top", ["0", "-3"])
def test_rank_rejects_top_below_one(wav_dataset, tmp_path, capsys, top):
    code = run(
        [
            "rank", *common(wav_dataset, tmp_path / "rankout"),
            "--checkpoint", str(tmp_path / "unused.ackp"),
            "--query", "a tone",
            "--top", top,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "--top" in err


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_perturbed_fails(monkeypatch, capsys):
    monkeypatch.setattr(space, "gradient_check", lambda seed, shape: 1e-2)
    assert run(["gradcheck", "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_with_flag_override(wav_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# demo config",
                f"manifest = {wav_dataset['manifest']}",
                f"audio_dir = {wav_dataset['audio_dir']}",
                "seed = 9",
                "epochs = 1",
                "batch_size = 3",
                f"out = {tmp_path / 'from_config'}",
            ]
        )
    )
    assert run(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "checkpoint.ackp").exists()
    # flags win over the config file
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "checkpoint.ackp").exists()


def test_unknown_preset_is_input_error(wav_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = resnet\n")
    code = run(["embed", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "preset" in capsys.readouterr().err


def test_embed_rejects_dump_encoder(wav_dataset, tmp_path, capsys):
    code = run(["embed", *common(wav_dataset, tmp_path / "x"), "--encoder", "dump:/tmp/nowhere"])
    assert code == 2
