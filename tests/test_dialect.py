import re
import tracemalloc

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
    extract_f0,
    hierarchical_cluster,
    load_corpus,
    canonical_transcriptions,
    categorical_distance,
    classical_mds,
    parse_transcription,
    region_distance_matrix,
    tone_clustering_pipeline,
    train_tone_model,
    tone_distance,
    two_cluster_accuracy,
    VoicingError,
)
from tonelab import dialect
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
        (["X\tw1\t35", "", "Y\tw1\t51"], ":3: expected 3 columns, got 0"),
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


QUOTED_ROWS = ['"A\tw1\t35', "B\tw1\t35", 'C"\tw1\t53', "D\tw1\t55"]


def test_load_corpus_quotes_are_ordinary_characters(tmp_path):
    # Each physical line is one row: a cell that starts with a quote does not
    # run on to the next quote, and later rows keep their own line numbers.
    corpus = load_corpus(write_corpus(tmp_path, QUOTED_ROWS))
    assert corpus.region_ids == ('"A', "B", 'C"', "D")
    assert sum(len(r) for r in corpus.regions) == 4
    path = write_corpus(tmp_path, [*QUOTED_ROWS, "E\tw1\t61"])
    with pytest.raises(CorpusError) as got:
        load_corpus(path)
    assert str(got.value).startswith(f"{path}:6: invalid transcription token '61'")


def test_load_corpus_reads_a_cell_of_any_length(tmp_path):
    long_id = "w" * 200_000  # more than the 131,072 characters of csv's field limit
    corpus = load_corpus(write_corpus(tmp_path, [f"X\t{long_id}\t35", f"Y\t{long_id}\t51"]))
    assert [list(r.entries) for r in corpus.regions] == [[long_id], [long_id]]


def test_load_corpus_crlf_and_no_final_newline(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(b"region\tword_id\ttranscription\r\nX\tw1\t35\r\nY\tw1\t51")
    corpus = load_corpus(path)
    assert corpus.region_ids == ("X", "Y")
    assert [r.entries["w1"].token for r in corpus.regions] == ["35", "51"]
    path.write_bytes(b"region\tword_id\ttranscription\r\nX\tw1\t35\r\nX\tw2\t39")
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:3: "):
        load_corpus(path)


# ---------------------------------------------------------------------------
# region distances


def pair_distance(a, b, metric="tone2vec"):
    """The distance of two regions: the off-diagonal entry of their region matrix."""
    return region_distance_matrix(DialectCorpus((a, b)), metric)[0].values[0, 1]


def test_region_distance_identical_lexicons():
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_A)
    assert pair_distance(a, b, "tone2vec") == 0.0
    assert pair_distance(a, b, "categorical") == 0.0


def test_region_distance_single_word_pair():
    a = RegionLexicon("A", {"w1": parse_transcription("41")})
    b = RegionLexicon("B", {"w1": parse_transcription("312")})
    assert pair_distance(a, b, "tone2vec") == pytest.approx(2.268354, abs=1e-6)
    assert pair_distance(a, b, "categorical") == 1.0


def test_region_distance_requires_shared_words():
    a = RegionLexicon("A", {"w1": parse_transcription("41")})
    b = RegionLexicon("B", {"w2": parse_transcription("312")})
    with pytest.raises(CorpusError, match="share no word"):
        pair_distance(a, b)


def test_region_distance_unknown_metric():
    a = lexicon("A", TEMPLATE_A)
    with pytest.raises(InputError):
        pair_distance(a, a, "hamming")


def test_region_distance_is_symmetric_and_triangular_on_shared_words():
    # with a common word list the mean of pseudometrics is a pseudometric
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_B)
    c = lexicon("C", ["35", "42", "315", "24", "55", "21"])
    for metric in ("tone2vec", "categorical"):
        dab = pair_distance(a, b, metric)
        assert dab == pair_distance(b, a, metric)
        assert dab <= pair_distance(a, c, metric) + pair_distance(c, b, metric) + 1e-12


def test_region_distance_matrix_reports_unshared_words():
    a = RegionLexicon("A", {"w1": parse_transcription("41"), "w2": parse_transcription("35")})
    b = RegionLexicon("B", {"w1": parse_transcription("312"), "w3": parse_transcription("51")})
    matrix, shared = region_distance_matrix(DialectCorpus((a, b)))
    assert matrix.values[0, 1] == pytest.approx(2.268354, abs=1e-6)
    assert np.array_equal(shared, [[2, 1], [1, 2]])
    assert dialect._coverage_warnings(("A", "B"), shared) == ["A/B: skipped 2 unshared word(s)"]


def reference_region_matrix(corpus, metric):
    """Per-pair loop: shared words summed left to right in sorted word-id order.

    An explicit loop, not sum(): Python >= 3.12 compensates float sums.
    """
    fn = {"tone2vec": tone_distance, "categorical": categorical_distance}[metric]
    regions = corpus.regions
    n = len(regions)
    values = np.zeros((n, n))
    shared_counts = np.diag([len(r.entries) for r in regions])
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
            shared_counts[i, j] = shared_counts[j, i] = len(shared)
            skipped = len(a.entries.keys() ^ b.entries.keys())
            if skipped:
                warnings.append(f"{a.region_id}/{b.region_id}: skipped {skipped} unshared word(s)")
    return values, shared_counts, warnings


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
    matrix, shared = region_distance_matrix(corpus, "tone2vec")
    ref, ref_shared, ref_warnings = reference_region_matrix(corpus, "tone2vec")
    assert np.array_equal(matrix.values, ref)
    assert np.array_equal(shared, ref_shared)
    assert dialect._coverage_warnings(corpus.region_ids, shared) == ref_warnings


def test_region_matrix_bit_identical_to_pair_loop_tie_heavy_categorical():
    corpus = random_corpus(7, regions=40, words=12, coverage=0.8, pool=["55", "35", "214"])
    matrix, shared = region_distance_matrix(corpus, "categorical")
    ref, ref_shared, ref_warnings = reference_region_matrix(corpus, "categorical")
    assert np.array_equal(matrix.values, ref)
    assert np.array_equal(shared, ref_shared)
    assert dialect._coverage_warnings(corpus.region_ids, shared) == ref_warnings
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
        matrix, shared = region_distance_matrix(corpus, metric)
        ref, ref_shared, ref_warnings = reference_region_matrix(corpus, metric)
        assert np.array_equal(matrix.values, ref)
        assert np.array_equal(shared, ref_shared)
        assert dialect._coverage_warnings(corpus.region_ids, shared) == ref_warnings
        assert pair_distance(regions[0], regions[1], metric) == ref[0, 1]


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
    assert dialect._REGION_BLOCK == 64  # n = 65 and 129 end in a block of width 1
    corpus = shared_word_corpus(n, regions=n, words=12, coverage=0.3)
    matrix, shared = region_distance_matrix(corpus, metric)
    ref, ref_shared, ref_warnings = reference_region_matrix(corpus, metric)
    assert np.array_equal(matrix.values, ref)
    assert np.array_equal(shared, ref_shared)
    assert dialect._coverage_warnings(corpus.region_ids, shared) == ref_warnings
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


def test_region_matrix_holds_at_most_three_matrices_beyond_its_result():
    """Besides what it returns, the matrix and the shared-word counts, the region
    matrix holds one block's work at a time: no count copies, quotients or triangles
    of n x n."""
    n = 400
    corpus = random_corpus(11, regions=n, words=20, coverage=0.9, pool=ALL_TOKENS)
    tracemalloc.start()
    try:
        result = region_distance_matrix(corpus, "tone2vec")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1].shape == (n, n)  # the shared-word counts are part of what it returns
    assert peak - current <= 3 * 8 * n * n


def test_region_matrix_fills_codes_region_by_region():
    """With far more words than regions, the peak is the word-by-region code array,
    its presence mask, that mask as floats and the word index: 2.47 x 8 bytes per
    (word, region) cell. Three lists with an entry per (region, word) pair, and an
    index array made from each, put it at 7.07 x."""
    n, words = 64, 4000
    corpus = random_corpus(12, regions=n, words=words, coverage=0.9, pool=ALL_TOKENS)
    tracemalloc.start()
    try:
        region_distance_matrix(corpus, "tone2vec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * words  # 20% headroom


def test_dialect_mds_formats_no_coverage_warnings(tmp_path):
    """dialect-mds prints coordinates only, so it builds none of the 78,326 warning
    lines of this corpus: its peak is the corpus, the matrix, the counts and MDS."""
    from tonelab.cli import main

    n = 400
    corpus = random_corpus(11, regions=n, words=20, coverage=0.9, pool=ALL_TOKENS)
    path = tmp_path / "corpus.tsv"
    path.write_text("region\tword_id\ttranscription\n" + "".join(
        f"{r.region_id}\t{w}\t{t.token}\n" for r in corpus.regions for w, t in r.entries.items()),
        encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["dialect-mds", "--corpus", str(path), "--dims", "2",
                     "-o", str(tmp_path / "mds.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n * n


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


def test_pipeline_refuses_an_unknown_linkage():
    with pytest.raises(InputError) as got:
        dialect_cluster_pipeline(six_region_corpus(), linkage="median")
    assert str(got.value) == (
        "unknown linkage 'median'; choose one of "
        "('sl', 'cl', 'ga', 'wa', 'uc', 'wc', 'mv') or 'all'")


def test_region_lexicon_refuses_no_entries():
    with pytest.raises(CorpusError) as got:
        RegionLexicon("A", {})
    assert str(got.value) == "region 'A' has no entries"


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


def mds_1d(corpus):
    """One MDS coordinate per region, the composition the dialect-mds command runs."""
    return classical_mds(region_distance_matrix(corpus)[0], 1)[:, 0]


def test_variance_map_identical_pair_plus_divergent():
    a = lexicon("A", TEMPLATE_A)
    b = lexicon("B", TEMPLATE_A)
    c = lexicon("C", TEMPLATE_B)
    corpus = DialectCorpus((a, b, c))
    coords = dict(zip(corpus.region_ids, mds_1d(corpus)))
    assert abs(coords["A"] - coords["B"]) < 1e-8
    assert abs(coords["A"] - coords["C"]) > 0.5


def test_variance_map_single_pair():
    a = lexicon("A", TEMPLATE_A)
    c = lexicon("C", TEMPLATE_B)
    coords = mds_1d(DialectCorpus((a, c)))
    d = pair_distance(a, c)
    assert sorted(coords) == pytest.approx([-d / 2, d / 2], abs=1e-10)


def test_variance_map_permutation_invariant():
    corpus = six_region_corpus()
    base = mds_1d(corpus)
    reversed_corpus = DialectCorpus(tuple(reversed(corpus.regions)))
    mapped = dict(zip(reversed_corpus.region_ids, mds_1d(reversed_corpus)))
    forward = np.array([mapped[r] for r in corpus.region_ids])
    assert np.allclose(np.abs(forward - forward[0]), np.abs(base - base[0]), atol=1e-8)


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
