import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopground.core import Question
from hopground.errors import EmptyRecords, MalformedDataset, MissingGold
from hopground.evaluation import (EvalRecord, aggregate, cover_em, judge,
                                  load_dataset, normalize, score_prediction,
                                  token_f1, write_records_csv)
from hopground.llm import ScriptedClient

import oracles
from helpers import LoggedScript, write_jsonl

WORDS = ["march", "april", "festival", "london", "river", "nile", "capital",
         "paris", "einstein", "prize", "honey", "reef", "desert", "monarch"]


def make_pairs(n=50, seed=42):
    """Fixture pairs: a crafted head plus seeded word-salad fill."""
    pairs = [
        ("LIDF is held in the months of March and April every year",
         ["March and April"]),
        ("March and April", ["March and April"]),
        ("May", ["March and April"]),
        ("march and april every year", ["march and april"]),
        ("The answer is Paris.", ["paris", "Paris, France"]),
        ("a party", ["art"]),                      # no sub-word matches
        ("march april", ["march and april"]),      # gap breaks contiguity
        ("", ["anything"]),
        ("The the the", ["the"]),                  # normalizes to empty gold
        ("exact", ["exact"]),
    ]
    rng = random.Random(seed)
    while len(pairs) < n:
        pred = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
        golds = [" ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        pairs.append((pred, golds))
    return pairs


word_st = st.sampled_from(WORDS)
phrase_st = st.lists(word_st, min_size=1, max_size=6).map(" ".join)


class TestNormalize:
    def test_articles_punctuation_case(self):
        assert normalize("The March, and April!") == ["march", "and", "april"]

    def test_empty(self):
        assert normalize("") == []

    def test_matches_oracle_on_fixture(self):
        for pred, golds in make_pairs():
            assert normalize(pred) == oracles.normalize_tokens(pred)
            for gold in golds:
                assert normalize(gold) == oracles.normalize_tokens(gold)

    @settings(max_examples=200)
    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(" ".join(once)) == once


class TestCoverEm:
    def test_containment_scores_one(self):
        pred = "LIDF is held in the months of March and April every year"
        assert cover_em(pred, ["March and April"]) == 1

    def test_identity(self):
        assert cover_em("March and April", ["March and April"]) == 1

    def test_disjoint(self):
        assert cover_em("May", ["March and April"]) == 0

    def test_token_containment_not_substring(self):
        assert cover_em("a party", ["art"]) == 0
        assert cover_em("march april", ["march and april"]) == 0

    def test_requires_gold(self):
        with pytest.raises(MissingGold):
            cover_em("anything", [])

    def test_any_gold_suffices(self):
        assert cover_em("the capital is Paris", ["London", "Paris"]) == 1


class TestTokenF1:
    def test_identity(self):
        assert token_f1("March and April", ["March and April"]) == 1.0

    def test_disjoint(self):
        assert token_f1("May", ["March and April"]) == 0.0

    def test_hand_case(self):
        # shared=3, precision 3/5, recall 3/3 -> 0.75
        value = token_f1("march and april every year", ["march and april"])
        assert value == pytest.approx(0.75, abs=1e-9)

    def test_max_over_golds(self):
        value = token_f1("paris", ["london calling", "paris"])
        assert value == 1.0

    def test_both_empty_after_normalization(self):
        assert token_f1("the", ["an a"]) == 0.0

    def test_one_side_empty(self):
        assert token_f1("the", ["word"]) == 0.0
        assert token_f1("word", ["the"]) == 0.0

    def test_requires_gold(self):
        with pytest.raises(MissingGold):
            token_f1("anything", [])

    # HotpotQA's scorer: a yes, no or noanswer on either side scores all or
    # nothing; cover-EM (Acc) keeps its own rule.  On both metrics a gold of
    # no tokens matches nothing
    @pytest.mark.parametrize("pred, golds, f1, acc", [
        ("yes it is", ["yes"], 0.0, 1),  # gold is yes
        ("no, never", ["no"], 0.0, 1),  # gold is no
        ("yes", ["yes it is"], 0.0, 0),  # prediction is yes
        ("no", ["no way"], 0.0, 0),  # prediction is no
        ("yes", ["no"], 0.0, 0),
        ("Yes!", ["YES"], 1.0, 1),  # case and punctuation normalize away
        ("No.", ["the no"], 1.0, 1),  # so does an article
        ("yes yes", ["yes"], 0.0, 1),
        ("yesterday", ["yes"], 0.0, 0),
        ("noanswer", ["noanswer"], 1.0, 1),
        ("no answer", ["noanswer"], 0.0, 0),
        ("noanswer", ["no answer"], 0.0, 0),
        ("yes it is", ["yes", "it is"], 0.8, 1),  # the best alias wins
        ("no", ["nope", "No"], 1.0, 1),
        ("march and april", ["april"], 0.5, 1),  # other answers as before
        ("Paris", ["The"], 0.0, 0),  # the gold normalizes to no tokens
        ("", ["the"], 0.0, 0),
        ("the", ["an a"], 0.0, 0),
        ("Paris", ["the", "Paris"], 1.0, 1),  # an alias that matches wins
        ("yes", ["A", "yes"], 1.0, 1),
    ])
    def test_closed_answers_score_all_or_nothing(self, pred, golds, f1, acc):
        assert token_f1(pred, golds) == pytest.approx(f1, abs=1e-12)
        assert oracles.token_f1(pred, golds) == pytest.approx(f1, abs=1e-12)
        assert cover_em(pred, golds) == acc

    @settings(max_examples=150)
    @given(phrase_st, phrase_st)
    def test_bounded_and_one_iff_equal_multisets(self, pred, gold):
        value = token_f1(pred, [gold])
        assert 0.0 <= value <= 1.0
        same = sorted(normalize(pred)) == sorted(normalize(gold))
        assert (value == 1.0) == same


class TestMetricProperties:
    @settings(max_examples=150)
    @given(phrase_st, phrase_st)
    def test_cover_implies_positive_f1(self, pred, gold):
        if normalize(gold) and cover_em(pred, [gold]) == 1:
            assert token_f1(pred, [gold]) > 0.0

    @settings(max_examples=150)
    @given(phrase_st, phrase_st, st.randoms(use_true_random=False))
    def test_invariance_under_noise(self, pred, gold, rng):
        def add_noise(text):
            tokens = text.split()
            i = rng.randrange(len(tokens) + 1)
            tokens.insert(i, rng.choice(["the", "a", "an"]))
            noisy = " ".join(tokens) + rng.choice([".", "!", ",", "?"])
            return noisy.upper() if rng.random() < 0.5 else noisy.title()

        assert cover_em(add_noise(pred), [gold]) == cover_em(pred, [gold])
        assert token_f1(add_noise(pred), [gold]) == pytest.approx(
            token_f1(pred, [gold]))
        assert cover_em(pred, [add_noise(gold)]) == cover_em(pred, [gold])

    def test_fixture_matches_oracle(self):
        for pred, golds in make_pairs():
            assert cover_em(pred, golds) == oracles.cover_em(pred, golds)
            assert token_f1(pred, golds) == pytest.approx(
                oracles.token_f1(pred, golds), abs=1e-12)


class TestJudge:
    def test_yes(self, library):
        llm = ScriptedClient(["Yes"])
        assert judge(llm, library, "q", "p", "g") == "yes"

    def test_no_with_prefix(self, library):
        llm = ScriptedClient(["  no, because the prediction is wrong"])
        assert judge(llm, library, "q", "p", "g") == "no"

    def test_unparseable_retries_once_then_records_no(self, library):
        llm = LoggedScript(["maybe", "perhaps"])
        assert judge(llm, library, "q", "p", "g") == "no"
        assert len(llm.calls) == 2

    def test_unparseable_then_yes_on_retry(self, library):
        llm = ScriptedClient(["maybe", "Yes."])
        assert judge(llm, library, "q", "p", "g") == "yes"

    def test_failed_call_judges_nothing(self, library):
        llm = ScriptedClient([])  # the call raises ScriptExhausted
        assert judge(llm, library, "q", "p", "g") is None

    @pytest.mark.parametrize("prediction", ["", "  ", "\n\t"])
    def test_blank_prediction_is_no_without_a_call(self, library, prediction):
        llm = LoggedScript([])  # any call would raise ScriptExhausted
        assert judge(llm, library, "q", prediction, "g") == "no"
        assert llm.calls == []


class TestAggregate:
    def record(self, qid, acc, f1, acc_judge=None):
        return EvalRecord(question_id=qid, acc=acc, f1=f1,
                          acc_judge=acc_judge)

    def test_mean_to_percent(self):
        summary = aggregate([self.record("1", 1, 1.0), self.record("2", 0, 0.0)])
        assert summary["acc"] == 50.00
        assert summary["f1"] == 50.00
        assert summary["acc_judge"] is None

    def test_constant_f1(self):
        summary = aggregate([self.record(str(i), 1, 1.0) for i in range(7)])
        assert summary["f1"] == 100.00

    def test_judge_mean_over_judged_records_only(self):
        records = [self.record("1", 1, 1.0, "yes"),
                   self.record("2", 0, 0.0, "no"),
                   self.record("3", 0, 0.0)]
        assert aggregate(records)["acc_judge"] == 50.00

    def test_fixture_matches_recount(self):
        pairs = make_pairs()
        records = [
            score_prediction(
                Question(id=str(i), text="q?", gold_answers=tuple(golds)), pred)
            for i, (pred, golds) in enumerate(pairs)]
        summary = aggregate(records)
        # independent spreadsheet-style recount
        accs = [oracles.cover_em(p, g) for p, g in pairs]
        f1s = [oracles.token_f1(p, g) for p, g in pairs]
        assert summary["acc"] == round(100.0 * sum(accs) / len(accs), 2)
        assert summary["f1"] == pytest.approx(
            round(100.0 * sum(f1s) / len(f1s), 2), abs=0.01)

    def test_empty_records(self):
        with pytest.raises(EmptyRecords):
            aggregate([])


class TestLoadDataset:
    def test_generic_jsonl(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [
            {"id": "a", "question": "Q1?", "answers": ["x"]},
            {"id": "b", "question": "Q2?", "answers": ["y", "z"]},
            {"id": "c", "question": "Q3?", "answers": ["w"]},
        ])
        questions = load_dataset(path, "generic")
        assert len(questions) == 3
        assert questions[1].gold_answers == ("y", "z")

    def test_generic_missing_answers(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "question": "Q?"}])
        with pytest.raises(MalformedDataset):
            load_dataset(path, "generic")

    @pytest.mark.parametrize("answers", [[None], ["x", True], [["x"]]])
    def test_generic_answer_must_be_a_string_or_number(self, tmp_path,
                                                       answers):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "question": "Q?", "answers": ["x"]},
                           {"id": "b", "question": "Q?", "answers": answers}])
        with pytest.raises(MalformedDataset) as err:
            load_dataset(path, "generic")
        assert err.value.line == 2

    def test_generic_numeric_answer_reads_as_text(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "question": "Q?", "answers": [1969]}])
        assert load_dataset(path, "generic")[0].gold_answers == ("1969",)

    def test_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "question": "Q?", "answers": ["x"]}\n'
                        "BROKEN\n", encoding="utf-8")
        with pytest.raises(MalformedDataset) as err:
            load_dataset(path, "generic")
        assert err.value.line == 2

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_line_separators_inside_values_stay_in_the_line(self, tmp_path,
                                                            separator):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "question": f"Q{separator}two?",
                            "answers": ["x"]}])
        [question] = load_dataset(path, "generic")
        assert question.text == f"Q{separator}two?"

    @pytest.mark.parametrize("name, data, format, message, line", [
        ("nogold.jsonl", b'{"_id": "h1", "question": "Q?", "answer": " "}\n',
         "hotpotqa", "record has no answer", 1),
        ("empty.jsonl", b'{"id": "a", "question": "Q?", "answers": []}\n',
         "generic", "'answers'", 1),
        ("latin1.json", b'[{"_id": "h1", "question": "Caf\xe9?"}]',
         "hotpotqa", "utf-8", None),
        ("broken.json", b'[{"_id": "h1",', "hotpotqa", "Expecting", None),
        ("second.json",
         b'[{"_id": "h1", "question": "Q?", "answer": "A"}, {"_id": "h2"}]',
         "hotpotqa", "question", 2),
    ], ids=["no answer", "empty answers", "not utf-8", "not json",
            "bad record"])
    def test_unusable_dataset_is_malformed(self, tmp_path, name, data,
                                           format, message, line):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(MalformedDataset, match=message) as err:
            load_dataset(path, format)
        assert err.value.line == line

    def test_hotpotqa_json_array(self, tmp_path):
        path = tmp_path / "hotpot.json"
        path.write_text(
            '[{"_id": "h1", "question": "Q?", "answer": "March and April"}]',
            encoding="utf-8")
        questions = load_dataset(path, "hotpotqa")
        assert questions[0].id == "h1"
        assert questions[0].gold_answers == ("March and April",)

    def test_musique_aliases(self, tmp_path):
        path = tmp_path / "musique.jsonl"
        write_jsonl(path, [{"id": "m1", "question": "Q?", "answer": "NYC",
                            "answer_aliases": ["New York City"]}])
        questions = load_dataset(path, "musique")
        assert questions[0].gold_answers == ("NYC", "New York City")

    @pytest.mark.parametrize("aliases", ["Lyon", None, {"a": "Lyon"}])
    def test_non_list_aliases_are_malformed(self, tmp_path, aliases):
        path = tmp_path / "musique.jsonl"
        write_jsonl(path, [{"id": "m1", "question": "Q?", "answer": "Paris",
                            "answer_aliases": aliases}])
        with pytest.raises(MalformedDataset, match="answer_aliases") as err:
            load_dataset(path, "musique")
        assert err.value.line == 1

    @pytest.mark.parametrize("record, golds", [
        ({"answer": "A", "answer_aliases": [5, "B"]}, ("A", "5", "B")),
        ({"answer": 1990}, ("1990",)),
        ({"answer": 1990, "answer_aliases": ["nineteen ninety"]},
         ("1990", "nineteen ninety")),
        ({"answer": " ", "answer_aliases": ["", "B"]}, ("B",)),
    ])
    def test_numeric_answers_read_as_text(self, tmp_path, record, golds):
        path = tmp_path / "musique.jsonl"
        write_jsonl(path, [{"id": "m1", "question": "Q?", **record}])
        assert load_dataset(path, "musique")[0].gold_answers == golds

    @pytest.mark.parametrize("record", [
        {"answer": True}, {"answer": "A", "answer_aliases": [None]},
        {"answer": ["A"]}])
    def test_non_scalar_answer_is_malformed(self, tmp_path, record):
        path = tmp_path / "musique.jsonl"
        write_jsonl(path, [{"id": "m1", "question": "Q?", **record}])
        with pytest.raises(MalformedDataset, match="answer") as err:
            load_dataset(path, "musique")
        assert err.value.line == 1

    @pytest.mark.parametrize("format, ids, expected", [
        ("hotpotqa", {"_id": 0}, "0"),
        ("hotpotqa", {"_id": None, "id": 7}, "7"),
        ("hotpotqa", {"_id": None}, "1"),
        ("musique", {"id": 2.5}, "2.5"),
        ("strategyqa", {"qid": 0, "id": "x"}, "0"),
        ("strategyqa", {"qid": None, "id": "x"}, "x"),
        ("strategyqa", {}, "1"),
    ])
    def test_named_format_takes_first_non_null_id(self, tmp_path, format,
                                                  ids, expected):
        answer = True if format == "strategyqa" else "A"
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{**ids, "question": "Q?", "answer": answer}])
        assert load_dataset(path, format)[0].id == expected

    @pytest.mark.parametrize("format, record", [
        ("generic", {"id": None, "answers": ["A"]}),
        ("generic", {"id": True, "answers": ["A"]}),
        ("hotpotqa", {"_id": ["h"], "answer": "A"}),
        ("strategyqa", {"qid": {}, "answer": True}),
        ("hotpotqa", "a bare string"),
    ])
    def test_non_scalar_id_is_malformed(self, tmp_path, format, record):
        if isinstance(record, dict):
            record = {**record, "question": "Q?"}
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record])
        with pytest.raises(MalformedDataset) as err:
            load_dataset(path, format)
        assert err.value.line == 1

    @pytest.mark.parametrize("format, records", [
        ("generic", [{"id": "a", "answers": ["A"]}] * 2),
        ("generic", [{"id": 7, "answers": ["A"]}, {"id": "7", "answers": ["A"]}]),
        ("hotpotqa", [{"_id": "2", "answer": "A"}, {"answer": "A"}]),
    ])
    def test_repeated_id_is_malformed(self, tmp_path, format, records):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{**r, "question": "Q?"} for r in records])
        with pytest.raises(MalformedDataset, match="repeated question id") \
                as err:
            load_dataset(path, format)
        assert err.value.line == 2

    @pytest.mark.parametrize("lead", [b"", b"\n\n", b" \t\r\n" * 2000])
    def test_leading_whitespace_keeps_the_layout(self, tmp_path, lead):
        records = [{"_id": f"h{i}", "question": f"Q{i}?", "answer": "A"}
                   for i in range(3)]
        lines = tmp_path / "data.jsonl"
        lines.write_bytes(lead + b"\n".join(json.dumps(r).encode()
                                            for r in records))
        array = tmp_path / "data.json"
        array.write_bytes(lead + json.dumps(records, indent=1).encode())
        expected = [Question(id=f"h{i}", text=f"Q{i}?", gold_answers=("A",))
                    for i in range(3)]
        assert load_dataset(lines, "hotpotqa") == expected
        assert load_dataset(array, "hotpotqa") == expected

    def test_2wiki(self, tmp_path):
        path = tmp_path / "wiki.jsonl"
        write_jsonl(path, [{"_id": "w1", "question": "Q?", "answer": "Ans"}])
        assert load_dataset(path, "2wiki")[0].gold_answers == ("Ans",)

    def test_strategyqa_boolean_mapping(self, tmp_path):
        path = tmp_path / "sqa.json"
        labels = [True, False, True, True, False, False, False, True]
        records = [{"qid": f"s{i}", "question": f"Q{i}?", "answer": label}
                   for i, label in enumerate(labels)]
        import json
        path.write_text(json.dumps(records), encoding="utf-8")
        questions = load_dataset(path, "strategyqa")
        golds = [q.gold_answers[0] for q in questions]
        assert golds == ["yes" if label else "no" for label in labels]
        # label distribution survives the mapping
        assert golds.count("yes") == sum(labels)

    def test_strategyqa_rejects_string_answer(self, tmp_path):
        path = tmp_path / "sqa.jsonl"
        write_jsonl(path, [{"qid": "s", "question": "Q?", "answer": "yes"}])
        with pytest.raises(MalformedDataset):
            load_dataset(path, "strategyqa")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "x.jsonl", "triviaqa")


class TestReports:
    def test_records_csv(self, tmp_path):
        records = [EvalRecord(question_id="a", acc=1, f1=0.5,
                              acc_judge="yes")]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "question_id,acc,f1,acc_judge"
        assert lines[1] == "a,1,0.5000,yes"
