import coopalign


def test_public_names_resolve():
    assert len(set(coopalign.__all__)) == len(coopalign.__all__)
    for name in coopalign.__all__:
        assert hasattr(coopalign, name), name
