"""``repro-map bench`` records the disk cache its flags describe."""

import json

from repro.cli import main


def test_bounded_cache_dir_lands_in_the_record(tmp_path, capsys):
    cache_dir, output = tmp_path / "cache", tmp_path / "bench.json"
    code = main(
        ["bench", "--quick", "--cache-dir", str(cache_dir),
         "--cache-max-entries", "3", "--output", str(output)]
    )
    assert code == 0
    assert f"wrote {output}" in capsys.readouterr().out
    cache = json.loads(output.read_text())["cache"]
    assert cache["enabled"] is True
    assert cache["dir"] == str(cache_dir)
    assert cache["max_entries"] == 3
    assert cache["max_bytes"] is None
    assert cache["readonly"] is False
    assert cache["evictions"] > 0
