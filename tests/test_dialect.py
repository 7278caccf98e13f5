import numpy as np
import pytest

from tonelab import (
    AudioClip,
    CorpusError,
    DialectCorpus,
    DistanceMatrix,
    InputError,
    LinearToneModel,
    RegionLexicon,
    Transcription,
    contour_feature,
    cut_tree,
    dialect_cluster_pipeline,
    dialect_variance_map,
    extract_f0,
    hierarchical_cluster,
    load_corpus,
    canonical_transcriptions,
    categorical_distance,
    parse_transcription,
    region_distance,
    region_distance_matrix,
    tone_clustering_pipeline,
    train_tone_model,
    tone_distance,
    two_cluster_accuracy,
    VoicingError,
)
from .synth import labelled_clip_set, tone_clip


def lexicon(region_id, tokens):
    return RegionLexicon(
        region_id, {f"w{i}": parse_transcription(t) for i, t in enumerate(tokens)}
    )


TEMPLATE_A = ["55", "35", "214", "51", "33", "13"]
TEMPLATE_B = ["11", "53", "415", "15", "44", "42"]


def six_region_corpus():
    """Two template lexicons; each region perturbs one word by one digit."""
    perturb = {
        "R0": ("w0", "45"), "R1": ("w2", "224"), "R2": ("w4", "43"),
        "R3": ("w1", "52"), "R4": ("w3", "25"), "R5": ("w5", "32"),
    }
    regions = []
    gold = {}
    for idx in range(6):
        rid = f"R{idx}"
        template = TEMPLATE_A if idx < 3 else TEMPLATE_B
        lex = lexicon(rid, template)
        wid, token = perturb[rid]
        entries = dict(lex.entries)
        entries[wid] = parse_transcription(token)
        regions.append(RegionLexicon(rid, entries))
        gold[rid] = 0 if idx < 3 else 1
    return DialectCorpus(tuple(regions), gold)


# ---------------------------------------------------------------------------
# corpus loading


def write_corpus(tmp_path, rows, header="region\tword_id\ttranscription"):
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def test_load_corpus_two_regions(tmp_path):
    path = write_corpus(tmp_path, [
        "X\tw1\t35", "X\tw2\t51", "X\tw3\t214",
        "Y\tw1\t45", "Y\tw2\t52", "Y\tw3\t213",
    ])
    corpus = load_corpus(path)
    assert corpus.region_ids == ("X", "Y")
    assert all(len(r) == 3 for r in corpus.regions)
    assert corpus.regions[0].entries["w3"].token == "214"


def test_load_corpus_invalid_token_reports_line(tmp_path):
    path = write_corpus(tmp_path, ["X\tw1\t35", "X\tw2\t39"])
    with pytest.raises(CorpusError, match=r":3.*39"):
        load_corpus(path)


def test_load_corpus_duplicate_entry(tmp_path):
    path = write_corpus(tmp_path, ["X\tw1\t35", "X\tw1\t51"])
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path)


def test_load_corpus_bad_header(tmp_path):
    path = write_corpus(tmp_path, ["X\tw1\t35"], header="area\tword\ttone")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path)
    path.write_text("region\tword_id\ttranscription\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="no data rows"):
        load_corpus(path)


def test_load_corpus_row_errors_name_their_line(tmp_path):
    path = write_corpus(tmp_path, ["X\tw1\t(35)", " Y \t w1 \t 214 "])
    corpus = load_corpus(path)
    assert corpus.region_ids == ("X", "Y")
    assert corpus.regions[0].entries["w1"] is parse_transcription("35")
    assert corpus.regions[1].entries["w1"] is parse_transcription("214")
    cases = [
        (["X\tw1\t35", "X\tw2"], ":3: expected 3 columns, got 2"),
        (["X\tw1\t35", "X\tw2\t35\textra"], ":3: expected 3 columns, got 4"),
        (["X\tw1\t35", " \tw2\t35"], ":3: empty region or word_id"),
        (["X\t\t35"], ":2: empty region or word_id"),
        (["X\tw1\t35", "X\tw2\t(61)"], ":3: invalid transcription token '(61)'"),
        (["X\tw1\t35", "X\tw1\t(35)"], ":3: duplicate entry (X, w1)"),
    ]
    for rows, message in cases:
        path = write_corpus(tmp_path, rows)
        with pytest.raises(CorpusError) as got:
            load_corpus(path)
        assert str(got.value).startswith(f"{path}{message}"), (rows, str(got.value))


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "absent.tsv")


def test_load_corpus_gold_labels(tmp_path):
    corpus_path = write_corpus(tmp_path, ["X\tw1\t35", "Y\tw1\t51"])
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text("region\tgold_label\nX\t0\nY\t1\n", encoding="utf-8")
    corpus = load_corpus(corpus_path, gold_path)
    assert corpus.gold_labels() == [0, 1]

    gold_path.write_text("region\tgold_label\nX\t2\nY\t1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="0 or 1"):
        load_corpus(corpus_path, gold_path)

    gold_path.write_text("region\tgold_label\nX\t0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="missing"):
        load_corpus(corpus_path, gold_path)


def test_load_corpus_gold_row_errors_name_their_line(tmp_path):
    corpus_path = write_corpus(tmp_path, ["X\tw1\t35", "Y\tw1\t51"])
    gold_path = tmp_path / "gold.tsv"
    cases = [
        ("X\t0\nY\t1\t1", ":3: expected 2 columns"),
        ("X\t0\nX\t1", ":3: duplicate gold region 'X'"),
    ]
    for rows, message in cases:
        gold_path.write_text(f"region\tgold_label\n{rows}\n", encoding="utf-8")
        with pytest.raises(CorpusError) as got:
            load_corpus(corpus_path, gold_path)
        assert str(got.value).startswith(f"{gold_path}{message}"), (rows, str(got.value))


# ---------------------------------------------------------------------------
# region distances


def test_region_distance_identical_lexicons():
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_A)
    assert region_distance(a, b, "tone2vec") == 0.0
    assert region_distance(a, b, "categorical") == 0.0


def test_region_distance_single_word_pair():
    a = RegionLexicon("A", {"w1": parse_transcription("41")})
    b = RegionLexicon("B", {"w1": parse_transcription("312")})
    assert region_distance(a, b, "tone2vec") == pytest.approx(2.268354, abs=1e-6)
    assert region_distance(a, b, "categorical") == 1.0


def test_region_distance_requires_shared_words():
    a = RegionLexicon("A", {"w1": parse_transcription("41")})
    b = RegionLexicon("B", {"w2": parse_transcription("312")})
    with pytest.raises(CorpusError, match="share no word"):
        region_distance(a, b)


def test_region_distance_unknown_metric():
    a = lexicon("A", TEMPLATE_A)
    with pytest.raises(InputError):
        region_distance(a, a, "hamming")


def test_region_distance_is_symmetric_and_triangular_on_shared_words():
    # with a common word list the mean of pseudometrics is a pseudometric
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_B)
    c = lexicon("C", ["35", "42", "315", "24", "55", "21"])
    for metric in ("tone2vec", "categorical"):
        dab = region_distance(a, b, metric)
        assert dab == region_distance(b, a, metric)
        assert dab <= region_distance(a, c, metric) + region_distance(c, b, metric) + 1e-12


def test_region_distance_matrix_reports_unshared_words():
    a = RegionLexicon("A", {"w1": parse_transcription("41"), "w2": parse_transcription("35")})
    b = RegionLexicon("B", {"w1": parse_transcription("312"), "w3": parse_transcription("51")})
    matrix, warnings = region_distance_matrix(DialectCorpus((a, b)))
    assert matrix.values[0, 1] == pytest.approx(2.268354, abs=1e-6)
    assert warnings == ["A/B: skipped 2 unshared word(s)"]


def reference_region_matrix(corpus, metric):
    """Per-pair loop: shared words summed left to right in sorted word-id order.

    An explicit loop, not sum(): Python >= 3.12 compensates float sums.
    """
    fn = {"tone2vec": tone_distance, "categorical": categorical_distance}[metric]
    regions = corpus.regions
    n = len(regions)
    values = np.zeros((n, n))
    warnings = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = regions[i], regions[j]
            shared = sorted(a.entries.keys() & b.entries.keys())
            if not shared:
                raise CorpusError(
                    f"regions {a.region_id!r} and {b.region_id!r} share no word ids")
            total = 0.0
            for w in shared:
                total += fn(a.entries[w], b.entries[w])
            values[i, j] = values[j, i] = total / len(shared)
            skipped = len(a.entries.keys() ^ b.entries.keys())
            if skipped:
                warnings.append(f"{a.region_id}/{b.region_id}: skipped {skipped} unshared word(s)")
    return values, warnings


def random_corpus(seed, regions, words, coverage, pool):
    rng = np.random.default_rng(seed)
    out = []
    for r in range(regions):
        present = rng.random(words) < coverage
        present[rng.integers(0, words)] = True
        entries = {f"w{w:03d}": parse_transcription(pool[rng.integers(0, len(pool))])
                   for w in rng.permutation(np.flatnonzero(present))}
        out.append(RegionLexicon(f"R{r}", entries))
    return DialectCorpus(tuple(out))


ALL_TOKENS = [t.token for t in canonical_transcriptions()]


@pytest.mark.parametrize("seed", range(6))
def test_region_matrix_bit_identical_to_pair_loop_tone2vec(seed):
    corpus = random_corpus(seed, regions=8 + 2 * seed, words=60, coverage=0.6 + 0.05 * seed,
                           pool=ALL_TOKENS)
    matrix, warnings = region_distance_matrix(corpus, "tone2vec")
    ref, ref_warnings = reference_region_matrix(corpus, "tone2vec")
    assert np.array_equal(matrix.values, ref)
    assert warnings == ref_warnings


def test_region_matrix_bit_identical_to_pair_loop_tie_heavy_categorical():
    corpus = random_corpus(7, regions=40, words=12, coverage=0.8, pool=["55", "35", "214"])
    matrix, warnings = region_distance_matrix(corpus, "categorical")
    ref, ref_warnings = reference_region_matrix(corpus, "categorical")
    assert np.array_equal(matrix.values, ref)
    assert warnings == ref_warnings
    assert len(np.unique(ref[np.triu_indices(len(ref), 1)])) < len(ref)  # many ties


def test_region_matrix_pair_sharing_one_word():
    regions = (
        RegionLexicon("A", {"w1": parse_transcription("41"), "w2": parse_transcription("35"),
                            "w3": parse_transcription("214")}),
        RegionLexicon("B", {"w2": parse_transcription("312"), "w4": parse_transcription("55")}),
        RegionLexicon("C", {"w1": parse_transcription("13"), "w2": parse_transcription("53"),
                            "w3": parse_transcription("21"), "w4": parse_transcription("44")}),
    )
    corpus = DialectCorpus(regions)
    for metric in ("tone2vec", "categorical"):
        matrix, warnings = region_distance_matrix(corpus, metric)
        ref, ref_warnings = reference_region_matrix(corpus, metric)
        assert np.array_equal(matrix.values, ref)
        assert warnings == ref_warnings
        assert region_distance(regions[0], regions[1], metric) == ref[0, 1]


def test_region_matrix_names_first_pair_without_shared_words():
    w = parse_transcription("35")
    regions = (
        RegionLexicon("A", {"w1": w, "w2": w}),
        RegionLexicon("B", {"w1": w}),
        RegionLexicon("C", {"w2": w, "w3": w}),
        RegionLexicon("D", {"w3": w}),
        RegionLexicon("E", {"w4": w}),
    )
    corpus = DialectCorpus(regions)
    with pytest.raises(CorpusError) as expected:
        reference_region_matrix(corpus, "tone2vec")
    with pytest.raises(CorpusError) as got:
        region_distance_matrix(corpus, "tone2vec")
    assert str(got.value) == str(expected.value) == "regions 'A' and 'D' share no word ids"


def shared_word_corpus(seed, regions, words, coverage):
    """Every region attests w000, so every pair shares it; the other words are
    attested at `coverage`, so many pairs share exactly that one word."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(regions):
        present = np.flatnonzero(rng.random(words) < coverage) + 1
        entries = {f"w{w:03d}": parse_transcription(ALL_TOKENS[rng.integers(0, 150)])
                   for w in rng.permutation(np.append(present, 0))}
        out.append(RegionLexicon(f"R{r}", entries))
    return DialectCorpus(tuple(out))


@pytest.mark.parametrize("metric", ["tone2vec", "categorical"])
@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_region_matrix_blocks_bit_identical_to_pair_loop(n, metric):
    from tonelab import dialect

    assert dialect._REGION_BLOCK == 64  # n = 65 and 129 end in a block of width 1
    corpus = shared_word_corpus(n, regions=n, words=12, coverage=0.3)
    matrix, warnings = region_distance_matrix(corpus, metric)
    ref, ref_warnings = reference_region_matrix(corpus, metric)
    assert np.array_equal(matrix.values, ref)
    assert warnings == ref_warnings
    entries = [r.entries.keys() for r in corpus.regions]
    assert sum(len(a & b) == 1 for k, a in enumerate(entries) for b in entries[k + 1:]) > n


def test_region_matrix_names_first_pair_across_blocks():
    # Rows 0-9 share a word with both R65 and R100; row 10 is the first row with a
    # zero, and R65 comes before R100 in it. Both sit in a later block than row 10.
    w = parse_transcription("35")
    regions = []
    for r in range(130):
        if r == 65:
            words = ["wy"]
        elif r == 100:
            words = ["wx"]
        else:
            words = ["wc", "wx", "wy"] if r < 10 else ["wc"]
        regions.append(RegionLexicon(f"R{r}", {word: w for word in words}))
    corpus = DialectCorpus(tuple(regions))
    with pytest.raises(CorpusError) as expected:
        reference_region_matrix(corpus, "categorical")
    with pytest.raises(CorpusError) as got:
        region_distance_matrix(corpus, "categorical")
    assert str(got.value) == str(expected.value) == "regions 'R10' and 'R65' share no word ids"


# ---------------------------------------------------------------------------
# dialect clustering pipeline


def test_pipeline_six_region_corpus_recovers_gold():
    corpus = six_region_corpus()
    # constructed so cross-template distances dominate within-template ones
    matrix, _ = region_distance_matrix(corpus, "tone2vec")
    within = [matrix.values[i, j] for i in range(3) for j in range(3) if i < j]
    within += [matrix.values[i, j] for i in range(3, 6) for j in range(3, 6) if i < j]
    cross = [matrix.values[i, j] for i in range(3) for j in range(3, 6)]
    assert max(within) < min(cross)

    report = dialect_cluster_pipeline(corpus, metric="tone2vec", linkage="mv")
    assert report["linkages"]["mv"]["accuracy"] == 1.0
    assert report["k"] == 2
    assert report["metric"] == "tone2vec"


def test_pipeline_all_linkages():
    report = dialect_cluster_pipeline(six_region_corpus(), linkage="all")
    assert sorted(report["linkages"]) == sorted(
        ["sl", "cl", "ga", "wa", "uc", "wc", "mv"]
    )
    for entry in report["linkages"].values():
        assert set(entry["labels"].values()) <= {0, 1}


def test_pipeline_region_order_invariant():
    corpus = six_region_corpus()
    reversed_corpus = DialectCorpus(tuple(reversed(corpus.regions)), corpus.gold_cluster)
    a = dialect_cluster_pipeline(corpus, linkage="mv")
    b = dialect_cluster_pipeline(reversed_corpus, linkage="mv")
    assert a["linkages"]["mv"]["accuracy"] == b["linkages"]["mv"]["accuracy"] == 1.0
    la, lb = a["linkages"]["mv"]["labels"], b["linkages"]["mv"]["labels"]
    same = {r: la[r] == la["R0"] for r in la}
    same_b = {r: lb[r] == lb["R0"] for r in lb}
    assert same == same_b


def test_pipeline_needs_three_regions():
    corpus = DialectCorpus((lexicon("A", TEMPLATE_A), lexicon("B", TEMPLATE_B)))
    with pytest.raises(InputError):
        dialect_cluster_pipeline(corpus)


def test_forced_two_split_of_identical_golds_scores_half():
    # two regions with the same gold label, forced into k=2
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_B)
    matrix, _ = region_distance_matrix(DialectCorpus((a, b)))
    assignment = cut_tree(hierarchical_cluster(matrix, "mv"), 2)
    assert two_cluster_accuracy(assignment, [0, 0]) == 0.5


def test_pipeline_no_gold_reports_none():
    corpus = six_region_corpus()
    without_gold = DialectCorpus(corpus.regions, None)
    report = dialect_cluster_pipeline(without_gold, linkage="mv")
    assert report["linkages"]["mv"]["accuracy"] is None


# ---------------------------------------------------------------------------
# variance map


def test_variance_map_identical_pair_plus_divergent():
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_A)
    c = lexicon("C", TEMPLATE_B)
    embedding = dialect_variance_map(DialectCorpus((a, b, c)))
    coords = dict(zip(embedding.region_ids, embedding.coords))
    assert abs(coords["A"] - coords["B"]) < 1e-8
    assert abs(coords["A"] - coords["C"]) > 0.5


def test_variance_map_single_pair():
    a = lexicon("A", TEMPLATE_A)
    c = lexicon("C", TEMPLATE_B)
    embedding = dialect_variance_map(DialectCorpus((a, c)))
    d = region_distance(a, c)
    assert sorted(embedding.coords) == pytest.approx([-d / 2, d / 2], abs=1e-10)


def test_variance_map_permutation_invariant():
    corpus = six_region_corpus()
    base = dialect_variance_map(corpus)
    permuted = dialect_variance_map(DialectCorpus(tuple(reversed(corpus.regions))))
    mapped = dict(zip(permuted.region_ids, permuted.coords))
    forward = np.array([mapped[r] for r in base.region_ids])
    assert np.allclose(np.abs(forward - forward[0]), np.abs(base.coords - base.coords[0]),
                       atol=1e-8)


# ---------------------------------------------------------------------------
# tone clustering pipeline


CLASSES = ["15", "51", "315", "513"]


def trained_model(seed=7):
    clips = labelled_clip_set(CLASSES, per_class=12, seed=31)
    data = [(contour_feature(extract_f0(clip)), label) for clip, label in clips]
    return train_tone_model(data, lr=0.002, epochs=2000, seed=seed)


def test_tone_clustering_recovers_four_categories():
    model = trained_model()
    rng = np.random.default_rng(401)
    clips = []
    for token in CLASSES:
        for _ in range(15):
            clips.append(tone_clip(token, base_hz=rng.uniform(150, 230), rng=rng))
    result = tone_clustering_pipeline(clips, model)
    assert result.n_categories == 4
    assert sorted(rep.token for _, rep in result.categories) == sorted(CLASSES)
    assert result.noise == ()


def test_tone_clustering_identical_clips_single_cluster():
    model = trained_model()
    clip = tone_clip("51")
    result = tone_clustering_pipeline([clip] * 6, model)
    assert result.n_categories == 1
    assert result.categories[0][1].token == "51"


def test_tone_clustering_too_few_clips_is_all_noise():
    model = trained_model()
    clips = [tone_clip(t) for t in ("15", "51", "315")]
    result = tone_clustering_pipeline(clips, model, min_samples=4)
    assert result.n_categories == 0
    assert result.noise == (0, 1, 2)


def test_tone_clustering_clip_order_invariant():
    model = trained_model()
    rng = np.random.default_rng(77)
    clips = []
    for token in CLASSES:
        for _ in range(6):
            clips.append(tone_clip(token, base_hz=rng.uniform(150, 230), rng=rng))
    base = tone_clustering_pipeline(clips, model)
    flipped = tone_clustering_pipeline(list(reversed(clips)), model)
    assert base.n_categories == flipped.n_categories
    assert sorted(r.token for _, r in base.categories) == sorted(
        r.token for _, r in flipped.categories
    )


def test_tone_clustering_modal_tie_breaks_to_smallest():
    from tonelab.learn import _modal_transcription

    pool = [parse_transcription("51"), parse_transcription("15")]
    assert _modal_transcription(pool).token == "15"
    pool = [parse_transcription("315")] * 2 + [parse_transcription("15")] * 2
    assert _modal_transcription(pool).token == "15"  # (1,5) sorts before (3,1,5)
    pool = [parse_transcription("315")] * 3 + [parse_transcription("15")] * 2
    assert _modal_transcription(pool).token == "315"


def test_tone_clustering_rejects_empty():
    model = LinearToneModel(np.zeros((3, 20)), np.zeros(3))
    with pytest.raises(InputError):
        tone_clustering_pipeline([], model)


def test_tone_clustering_takes_clips_one_at_a_time():
    model = trained_model()
    clips = [tone_clip(t) for t in CLASSES for _ in range(4)]
    assert tone_clustering_pipeline(iter(clips), model) == tone_clustering_pipeline(clips, model)

    def reads():
        yield clips[0]
        yield AudioClip(np.zeros(8000), 16000)
        pytest.fail("read a clip after the one that failed")

    with pytest.raises(VoicingError):
        tone_clustering_pipeline(reads(), model)
    with pytest.raises(InputError, match="at least one clip"):
        tone_clustering_pipeline(iter([]), model)


def test_tone_clustering_names_the_failing_clip():
    model = LinearToneModel(np.zeros((3, 20)), np.zeros(3))
    clips = [tone_clip("51"), AudioClip(np.zeros(8000), 16000)]
    with pytest.raises(VoicingError, match=r"^b\.wav: need at least 5"):
        tone_clustering_pipeline(clips, model, sources=["a.wav", "b.wav"])
    with pytest.raises(VoicingError, match=r"^need at least 5"):
        tone_clustering_pipeline(clips, model)
