import similitude


def test_every_public_name_resolves():
    assert len(set(similitude.__all__)) == len(similitude.__all__)
    for name in similitude.__all__:
        assert getattr(similitude, name) is not None, name
