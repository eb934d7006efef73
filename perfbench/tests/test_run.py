import run


def test_refuses_a_directory_without_the_source_tree(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "afs_pinned", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""  # no result line
