"""Exit codes and report digests for a fixed command list.

Each command runs in-process through `cli.main` and writes its default
report (no --timings) to a file; the test pins the exit code and the
sha256 of that file, so any change to a report byte or an exit code
fails here.  The digests were recorded at commit a790bdf.  The one of
`paper-verify --check all` was re-recorded on top of commit 018afc1, when
the registry dropped its two seeded twin-attach checks and, with them,
the `seed` key of every check report.  Inputs are written by `gen`, whose
output is pinned the same way.
"""

from __future__ import annotations

import hashlib

from trifree.cli import main

INPUTS = {
    "fig41": ["gen", "fig41"],
    "vega310": ["gen", "vega", "--i", "3", "--mu", "1", "--nu", "0"],
    "cayley2": ["gen", "cayley", "--k", "2"],
    "andrasfai5": ["gen", "andrasfai", "--k", "5"],
    "andrasfai3": ["gen", "andrasfai", "--k", "3"],
    "blowup": ["gen", "blowup", "--in", "{andrasfai3}", "--weights", "1,2,3,1,2,3,1,2"],
}

COMMANDS = (
    [["census", "--n", str(n), "--assert"] for n in range(2, 10)]
    + [["hunt", "--max-n", "8"], ["paper-verify", "--check", "all"]]
    + [["check", flag, *level, "--in", "{" + name + "}"]
       for name in ("fig41", "vega310", "cayley2", "andrasfai5")
       for flag, *level in (("--d", "4"), ("--q", "4"), ("--alpha",), ("--maximal",))]
    + [["recognize", "--in", "{blowup}"], ["extremal", "--n", "16", "--s", "7", "--search"]]
)

DIGESTS = {
    "gen fig41":
        (0, "798472fefb46637214332353e600a464d99a41d81c1a391b77a29b00f2a5b6ae"),
    "gen vega --i 3 --mu 1 --nu 0":
        (0, "315c82863669477110cf0e6952d6c3eb84207e686fb8cc0a025079da7e6d12cb"),
    "gen cayley --k 2":
        (0, "b3c8d0fec5bc4985d431cbde16d49fad3b1ad1019845cde80f5a07d4d89d3a60"),
    "gen andrasfai --k 5":
        (0, "d9ffbf94a52b3f66b14b10a45e667b8c78dbc58fd9e403c86c7aee1068810db1"),
    "gen andrasfai --k 3":
        (0, "023a13bd8feffb08e454903b8d6a16623af76e4920328395ab1bb2b4696242ba"),
    "gen blowup --in {andrasfai3} --weights 1,2,3,1,2,3,1,2":
        (0, "24dd90b161e8cf546eb78d010265581e67d16f3fc83a79a9b03ad255e3d2b382"),
    "census --n 2 --assert":
        (0, "adaf483494d199ade0089cbd14d8eaf6b22002e9663e3eee794c44579cfae81c"),
    "census --n 3 --assert":
        (0, "0d6d4834dd6d19a2e016ea322415f6468399fef25a42b4a70fa0236f81935244"),
    "census --n 4 --assert":
        (0, "ed58f25a342b6c8f82013fb3ce13224e94e39e6f020633f0fdf38d3626a3eae6"),
    "census --n 5 --assert":
        (0, "881b4ea6c16b22704f9a8f6d99b1926d1f91d39b4489cf470bc7d2190cb498c0"),
    "census --n 6 --assert":
        (0, "e697498c43936a5d1f670e56090efd59ee8d7909255c9a8a7556ca8b08fdb3fd"),
    "census --n 7 --assert":
        (0, "2115f26a2f1b508c663fb77d2c31adc5d02932007ac8d99bccf93306a82825f6"),
    "census --n 8 --assert":
        (0, "59d07fcabdeece3c80526b6fc42814d3fdfdabdd5747770842f591316bfacc83"),
    "census --n 9 --assert":
        (0, "c1ecbf2965f85b8e2ccf2e2b4cd50040f13a0015f9edb5e2ba67b03ff12cc2da"),
    "hunt --max-n 8":
        (0, "42a31c2afadec7b2a5252a6b0870cefd1c0b4f76028e006052e1d901503a1882"),
    "paper-verify --check all":
        (0, "32c02e289d7ce8b8c4133bc08a5abb108224b17de0e28e8996f70ae8a582f3c9"),
    "check --d 4 --in {fig41}":
        (1, "ecaacc066ea485652feab9e50218a89acbdee5809a0b30075a523b42a2902ad3"),
    "check --q 4 --in {fig41}":
        (1, "353a72d8a298e3f842f91f73a4a3b8347aaef48d30e0da78288da6142ce1843e"),
    "check --alpha --in {fig41}":
        (0, "d388eff135d9591d260e019136d305b4c5401b3de4f7c69d6b0fc7b65b82e232"),
    "check --maximal --in {fig41}":
        (0, "5380a56774dcc843a6c11e9250a71262421b931bfa947b56e91ae770be512e00"),
    "check --d 4 --in {vega310}":
        (0, "a7b1def92cdb6490c5fee68ea01b233f3187b3d686a75ed27249668d95f7d54e"),
    "check --q 4 --in {vega310}":
        (0, "d7a5ecc3cfbcb9044044ce8e83084f830491a323cee87e95fc10e1d7742a471b"),
    "check --alpha --in {vega310}":
        (0, "7ed01246269af6c9bad0c6f76c1fe842f29deed22aaaa42d31d7830e950eb88b"),
    "check --maximal --in {vega310}":
        (0, "2a2ec9d3a365e7f42e31f4690ec80ee4dc51cebcdd9944a34b743e4ee558b4cf"),
    "check --d 4 --in {cayley2}":
        (1, "19b6607d64f74a64ecde0ca1cd5e7d285446e6a793610f4da61351e81f51e662"),
    "check --q 4 --in {cayley2}":
        (1, "bf14467c4c86d218bf52f8e3ce5bc636e38ae19d242f9ea3cc66deaa67933a86"),
    "check --alpha --in {cayley2}":
        (0, "522414840e3d76ee91fce812c542b5f78dabb2d49bbbcdceb8e9cba4a3c6b7eb"),
    "check --maximal --in {cayley2}":
        (0, "035177f5a458d21a40c8f7b2dbd896c6b307d19bac3b8b2de0da72e96aba46da"),
    "check --d 4 --in {andrasfai5}":
        (0, "d24f67ae25431a2e66df00e16792b4533e9d4cb4179102cb4ab918946d856324"),
    "check --q 4 --in {andrasfai5}":
        (0, "082a0d7f2b74c9a5c5aa4677f0a38db3026fc8db6fc7129e3939c462a682a7e4"),
    "check --alpha --in {andrasfai5}":
        (0, "ffe901684f4e0d6f712f8d0a06bac51021db03feceff62ae6d1e681c6bc9f063"),
    "check --maximal --in {andrasfai5}":
        (0, "1a6b396c6efac63bd30f1fac58f2d38a694d373b0d4f430bd98ba9998fc75282"),
    "recognize --in {blowup}":
        (0, "e91c24d5728e93876ed18338698ac87935b7b3afd07016ce667bf51a33c482ee"),
    "extremal --n 16 --s 7 --search":
        (0, "a47cf0c9badfef0acdd0273e2cda926ec814e49ab782612a600f1c523d80fe5f"),
}


def _run(argv, tmp_path) -> tuple[int, str]:
    out = tmp_path / "out"
    argv = [str(tmp_path / arg[1:-1]) if arg[0] == "{" else arg for arg in argv]
    code = main(argv + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def test_reports_and_exit_codes_match_the_recorded_digests(tmp_path):
    seen = {}
    for name, argv in INPUTS.items():
        seen[" ".join(argv)] = _run(argv, tmp_path)
        (tmp_path / "out").replace(tmp_path / name)
    for argv in COMMANDS:
        seen[" ".join(argv)] = _run(argv, tmp_path)
    assert seen == DIGESTS
