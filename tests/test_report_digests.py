"""Exit codes and report digests for a fixed command list.

Each command runs in-process through `cli.main` and writes its default
report (no --timings) to a file; the test pins the exit code and the
sha256 of that file, so any change to a report byte or an exit code
fails here.  The digests were recorded at commit a790bdf.  The one of
`paper-verify --check all` was re-recorded on top of commit 018afc1, when
the registry dropped its two seeded twin-attach checks and, with them,
the `seed` key of every check report.  Every `check`, `recognize` and
`paper-verify` digest was re-recorded on top of commit 7be44b8, when each
report came to name its graph as order, size and graph6 instead of an edge
list and the check reports dropped their constant `"parameters": {}`; the
`gen`, `census`, `hunt` and `extremal` digests were kept, and
`check --tf` and a refuting `recognize`, both on fig41, were added then so
that every report shape that carries a graph is pinned.  Inputs are written
by `gen`, whose output is pinned the same way.
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
    + [["check", "--tf", "--in", "{fig41}"], ["recognize", "--in", "{blowup}"],
       ["recognize", "--in", "{fig41}"], ["extremal", "--n", "16", "--s", "7", "--search"]]
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
        (0, "8dbac3cb4cace626e2696a2e68719194289a9e399fa0f788685ef724d51604e7"),
    "check --d 4 --in {fig41}":
        (1, "283487f7cd88d81ee0508b5773da1a1c0fc8be52d0cb81a39354754f1387d699"),
    "check --q 4 --in {fig41}":
        (1, "581c5deadadc71d5fb0bb3202396635b3fb6003a6a5b82a3233086478b135b0f"),
    "check --alpha --in {fig41}":
        (0, "aaf87a781e341cf5e7dacf7b73b2ab05d42f85e52ab5a4ed032dbdbf9a039a36"),
    "check --maximal --in {fig41}":
        (0, "9f82ae68a971c42d13562b474a5aef8f573f5c4129e7ddd8483a336c9a0ddd69"),
    "check --d 4 --in {vega310}":
        (0, "5b22ece3a30d04e420f4458de1519e7560c58683ec35c531b4ba4ab460864972"),
    "check --q 4 --in {vega310}":
        (0, "a5b30bb0c160ba981e4968dfeaa5aedf714e75d0d6d29d1c3cf61547ac35c724"),
    "check --alpha --in {vega310}":
        (0, "938640640c670943773db411878c9d7ad8f38d6d1ccbf2bc7ae98986a1ee4b84"),
    "check --maximal --in {vega310}":
        (0, "529bdefc8ebd7d695c06f8115fcab9b4a65364c6622f56ffc86661e79b45f7b0"),
    "check --d 4 --in {cayley2}":
        (1, "70e0097b987f2397132c220acea836660552ae6a7f6d3052a3b5a2457da660af"),
    "check --q 4 --in {cayley2}":
        (1, "2f299d4ca086e00cdbf6787b27d268ffc5a0a2fe64b3a9bf8904e927ed060f26"),
    "check --alpha --in {cayley2}":
        (0, "59bc5dc2d8a88545bb27a766098d0a2c9ffa3f9eebc4e975d3456d6964cc076d"),
    "check --maximal --in {cayley2}":
        (0, "98b58f5c160f49644b315633e48b459aa197a863b7b6bdbfd14bc44f3e3a4e42"),
    "check --d 4 --in {andrasfai5}":
        (0, "2bb092649db0d41e11e5e87d49e36950f9d38dbcfce3d33e32494ee57dd38a55"),
    "check --q 4 --in {andrasfai5}":
        (0, "6783c76a8d4045cfced7d174f981833f0d8f6b954d5232b11ec468c687ca5c9c"),
    "check --alpha --in {andrasfai5}":
        (0, "40ccc8a4095ebc603342bce3c56144a521775166b026548c9a4998e63f538569"),
    "check --maximal --in {andrasfai5}":
        (0, "bab1cc49ab7bd1f201b301223565945568a954ba2cb751a63bcee0dc9543e282"),
    "check --tf --in {fig41}":
        (0, "f09643ab14c96d2f1e949dffde883c7e4036d4b03f9bb6f7915e970ab09cae9f"),
    "recognize --in {blowup}":
        (0, "58287fae33ae5f9a487d75442cc0980a8922f7a49f48f804451892dfae3c115f"),
    "recognize --in {fig41}":
        (1, "8547aa2fe0646ae2c755836e5f2a2b0962bc117a01594d9ec24122148dc0f5c1"),
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
