import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "rmsig"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def keyfiles(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("keys")
    prefix = tmp / "toy"
    out = run_cli(
        "keygen", "--m", 5, "--r", 2, "--w", 12, "--n-trials", 100,
        "--seed", 21, "--out-prefix", prefix,
    )
    assert out.returncode == 0, out.stderr
    return prefix.with_suffix(".pub"), prefix.with_suffix(".sec"), tmp


class TestKeygenCommand:
    def test_deterministic_files(self, tmp_path):
        args = ["keygen", "--m", 4, "--r", 1, "--w", 8, "--n-trials", 50, "--seed", 7]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-prefix", a).returncode == 0
        assert run_cli(*args, "--out-prefix", b).returncode == 0
        for ext in (".pub", ".sec"):
            assert a.with_suffix(ext).read_bytes() == b.with_suffix(ext).read_bytes()

    def test_m_over_cap_exits_2(self, tmp_path):
        out = run_cli(
            "keygen", "--m", 13, "--r", 5, "--w", 10, "--n-trials", 10,
            "--seed", 0, "--out-prefix", tmp_path / "x",
        )
        assert out.returncode == 2
        assert out.stderr

    def test_r_equal_to_m_exits_2_and_writes_nothing(self, tmp_path):
        out = run_cli(
            "keygen", "--m", 3, "--r", 3, "--w", 1, "--n-trials", 10,
            "--seed", 0, "--out-prefix", tmp_path / "k",
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and "r < m" in out.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("w, n_trials", [(3, 2**32), (2**32, 4)])
    def test_u32_overflow_exits_2_and_writes_nothing(self, tmp_path, w, n_trials):
        # The key file stores w and N as u32.
        out = run_cli(
            "keygen", "--m", 4, "--r", 1, "--w", w, "--n-trials", n_trials,
            "--seed", 1, "--out-prefix", tmp_path / "k",
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
        assert list(tmp_path.iterdir()) == []

    def test_generated_public_key_loads(self, keyfiles):
        from rmsig import formats

        pub_path, _, _ = keyfiles
        pub = formats.load_public_key(pub_path.read_bytes())
        assert pub.H.shape == (32 - 16, 32)


class TestSignVerifyCommands:
    def test_sign_then_verify_exit_0(self, keyfiles, tmp_path):
        pub, sec, _ = keyfiles
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"cli round trip")
        sig = tmp_path / "msg.sig"
        out = run_cli("sign", "--key", sec, "--message-file", msg, "--out", sig)
        assert out.returncode == 0, out.stderr
        out = run_cli("verify", "--pubkey", pub, "--message-file", msg, "--sig", sig)
        assert out.returncode == 0
        assert "ACCEPT" in out.stdout

    def test_verify_flipped_bit_exits_1(self, keyfiles, tmp_path):
        from rmsig import formats

        pub, sec, _ = keyfiles
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"tamper target")
        sig_path = tmp_path / "m.sig"
        assert run_cli("sign", "--key", sec, "--message-file", msg, "--out", sig_path).returncode == 0
        sig = formats.load_signature(sig_path.read_bytes())
        e = sig.e.copy()
        e[3] ^= 1
        tampered = formats.save_signature(type(sig)(e=e, i=sig.i), e.size)
        sig_path.write_bytes(tampered)
        out = run_cli("verify", "--pubkey", pub, "--message-file", msg, "--sig", sig_path)
        assert out.returncode == 1
        assert "REJECT" in out.stdout

    def test_verify_truncated_sig_exits_2(self, keyfiles, tmp_path):
        pub, sec, _ = keyfiles
        msg = tmp_path / "t.bin"
        msg.write_bytes(b"truncated")
        sig_path = tmp_path / "t.sig"
        assert run_cli("sign", "--key", sec, "--message-file", msg, "--out", sig_path).returncode == 0
        sig_path.write_bytes(sig_path.read_bytes()[:-5])
        out = run_cli("verify", "--pubkey", pub, "--message-file", msg, "--sig", sig_path)
        assert out.returncode == 2

    def test_hostile_key_files_exit_2(self, keyfiles, tmp_path):
        # Header m=60000, r=30000 with a recomputed CRC: both loaders must
        # refuse it as a format error instead of sizing the body from it.
        import struct, zlib

        pub, sec, _ = keyfiles
        msg = tmp_path / "h.bin"
        msg.write_bytes(b"hostile")
        sig_path = tmp_path / "h.sig"
        assert run_cli("sign", "--key", sec, "--message-file", msg, "--out", sig_path).returncode == 0
        hostile = {}
        for path in (pub, sec):
            body = bytearray(path.read_bytes()[:-4])
            body[7:11] = struct.pack("<HH", 60000, 30000)
            hostile[path.suffix] = tmp_path / f"hostile{path.suffix}"
            hostile[path.suffix].write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        out = run_cli(
            "verify", "--pubkey", hostile[".pub"], "--message-file", msg, "--sig", sig_path
        )
        assert out.returncode == 2 and "error" in out.stderr
        out = run_cli(
            "sign", "--key", hostile[".sec"], "--message-file", msg, "--out", tmp_path / "x.sig"
        )
        assert out.returncode == 2 and "error" in out.stderr

    def test_wrong_message_exits_1(self, keyfiles, tmp_path):
        pub, sec, _ = keyfiles
        msg = tmp_path / "w.bin"
        msg.write_bytes(b"original")
        sig_path = tmp_path / "w.sig"
        assert run_cli("sign", "--key", sec, "--message-file", msg, "--out", sig_path).returncode == 0
        other = tmp_path / "other.bin"
        other.write_bytes(b"not the original")
        out = run_cli("verify", "--pubkey", pub, "--message-file", other, "--sig", sig_path)
        assert out.returncode == 1


class TestAnalysisCommands:
    def test_estimate_matches_table_row(self):
        out = run_cli("estimate", "--n", 1024, "--k", 386, "--w", 192)
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "log2_prob"
        assert float(lines[1]) <= -74

    def test_calibrate_exhaustive_rm31(self, tmp_path):
        csv = tmp_path / "hist.csv"
        out = run_cli(
            "calibrate", "--m", 3, "--r", 1, "--samples", "exhaustive",
            "--seed", 0, "--csv", csv,
        )
        assert out.returncode == 0
        assert csv.read_text() == "weight,count\n0,1\n1,8\n2,7\n"

    def test_calibrate_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            out = run_cli(
                "calibrate", "--m", 4, "--r", 1, "--samples", 400,
                "--seed", 9, "--csv", path,
            )
            assert out.returncode == 0
        assert a.read_text() == b.read_text()

    def test_calibrate_signing_path(self, keyfiles, tmp_path):
        from rmsig import analysis, formats

        from reference import aligned_parent

        _, sec, _ = keyfiles
        csv = tmp_path / "signing.csv"
        out = run_cli("calibrate", "--key", sec, "--samples", 300, "--seed", 4, "--csv", csv)
        assert out.returncode == 0, out.stderr
        priv = formats.load_private_key(sec.read_bytes())
        dist = analysis.calibrate(priv.mod, 300, np.random.default_rng(4))
        assert csv.read_text() == dist.to_csv()
        # The plain code's histogram is another one.
        parent = aligned_parent(priv.mod)
        plain = analysis.calibrate(parent, 300, np.random.default_rng(4))
        assert csv.read_text() != plain.to_csv()

    @pytest.mark.parametrize(
        "args",
        [["--key", "K", "--m", 5], ["--key", "K", "--r", 2], ["--m", 5], ["--r", 2], []],
        ids=["key+m", "key+r", "m only", "r only", "neither"],
    )
    def test_calibrate_code_choice_exits_2(self, keyfiles, args):
        _, sec, _ = keyfiles
        args = [sec if a == "K" else a for a in args]
        out = run_cli("calibrate", *args, "--samples", 10, "--seed", 0)
        assert out.returncode == 2
        assert "--key" in out.stderr and "--m" in out.stderr and not out.stdout

    def test_attack_vacuous_bound_rate_1(self, tmp_path):
        prefix = tmp_path / "atk"
        assert run_cli(
            "keygen", "--m", 4, "--r", 2, "--w", 5, "--n-trials", 10,
            "--seed", 3, "--out-prefix", prefix,
        ).returncode == 0
        out = run_cli(
            "attack", "--pubkey", prefix.with_suffix(".pub"), "--trials", 50, "--seed", 1
        )
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "successes,trials,rate"
        assert lines[1] == "50,50,1.000000"

    def test_attack_no_success_exits_1(self, keyfiles, tmp_path):
        # w=12 on a 16-bit syndrome: some trials succeed; use a tight key.
        prefix = tmp_path / "tight"
        assert run_cli(
            "keygen", "--m", 5, "--r", 1, "--w", 7, "--n-trials", 10,
            "--seed", 3, "--out-prefix", prefix,
        ).returncode == 0
        out = run_cli(
            "attack", "--pubkey", prefix.with_suffix(".pub"), "--trials", 30, "--seed", 2
        )
        assert out.returncode == 1
        assert out.stdout.strip().split("\n")[1].startswith("0,30")


def test_usage_error_exits_2():
    out = run_cli("keygen", "--m", 4)
    assert out.returncode == 2
