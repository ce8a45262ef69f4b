import json
import threading
import time
from dataclasses import replace

import pytest

from hopground import pipeline
from hopground.core import (Document, GroundingKind, Question, Termination,
                            TokenCounts, Trajectory)
from hopground.errors import ConfigError, MalformedDataset
from hopground.llm import RecordingClient, ScriptedClient
from hopground.pipeline import (BM25Retriever, PipelineConfig,
                                RetrievalConfig, answer_dataset,
                                answer_question, load_trajectories,
                                map_ordered, write_trajectories)
from hopground.prompts import format_step
from hopground.retrieval import build_index

from helpers import (FESTIVAL_CORPUS, FESTIVAL_FINAL, FESTIVAL_HOP1_REVISED,
                     FESTIVAL_HOP2_REVISED, FESTIVAL_QUESTION, FESTIVAL_SCRIPT,
                     LoggedScript, within)

QUESTION = Question(id="q1", text="What is the capital of France?")
EMPTY = "<ref> Empty </ref>"
CITED = "<ref> some evidence </ref> <revise> revised text </revise>"
STEP = "Question 1: What is the capital of France?\nAnswer 1: Paris is the capital."


@pytest.fixture()
def retriever():
    return BM25Retriever(build_index(FESTIVAL_CORPUS))


def config(**kwargs):
    kwargs.setdefault("concurrency", 1)
    return PipelineConfig(**kwargs)


class TestAnswerQuestion:
    def test_festival_replay(self, library, retriever):
        llm = ScriptedClient(FESTIVAL_SCRIPT)
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.FINISH_SIGNAL
        assert traj.final_answer == FESTIVAL_FINAL
        assert len(traj.hops) == 2
        assert traj.hops[0].revised_answer == FESTIVAL_HOP1_REVISED
        assert traj.hops[1].revised_answer == FESTIVAL_HOP2_REVISED
        assert traj.hops[0].grounding.kind is GroundingKind.CITED
        assert [h.batches_consumed for h in traj.hops] == [1, 1]
        assert [h.index for h in traj.hops] == [1, 2]
        # both documents retrieved for each hop in this tiny corpus
        assert all(len(h.retrieved) == 2 for h in traj.hops)
        # raw model outputs preserved verbatim
        assert traj.hops[0].deduction_raw == FESTIVAL_SCRIPT[0]
        assert traj.hops[1].grounding.raw_text == FESTIVAL_SCRIPT[3]

    def test_immediate_finish_has_no_hops_and_no_grounding(self, library,
                                                           retriever):
        llm = LoggedScript(["###Finish[March and April]"])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.FINISH_SIGNAL
        assert traj.final_answer == "March and April"
        assert traj.hops == ()
        assert len(llm.calls) == 1

    def test_max_hops_cap_uses_last_revised_answer(self, library, retriever):
        llm = LoggedScript([FESTIVAL_SCRIPT[0], FESTIVAL_SCRIPT[1]])
        traj = answer_question(FESTIVAL_QUESTION, config(max_hops=1), llm,
                               retriever, library)
        assert traj.termination is Termination.MAX_HOPS_REACHED
        assert traj.final_answer == FESTIVAL_HOP1_REVISED
        assert len(traj.hops) == 1
        assert llm.remaining == 0  # no third call attempted

    def test_parse_failure_retries_once_then_terminates(self, library,
                                                        retriever):
        llm = LoggedScript(["garbage", "still garbage"])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.PARSE_FAILURE
        assert traj.final_answer == ""
        assert traj.hops == ()
        assert len(llm.calls) == 2  # original + one retry

    def test_parse_failure_recovers_on_retry(self, library, retriever):
        llm = ScriptedClient(["garbage", FESTIVAL_SCRIPT[0],
                              FESTIVAL_SCRIPT[1], "###Finish[done]"])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.FINISH_SIGNAL
        assert len(traj.hops) == 1

    def test_llm_error_preserves_partial_hops(self, library, retriever):
        # script ends during hop 2 grounding
        llm = ScriptedClient([FESTIVAL_SCRIPT[0], FESTIVAL_SCRIPT[1],
                              FESTIVAL_SCRIPT[2]])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.PARSE_FAILURE
        assert len(traj.hops) == 1
        assert traj.final_answer == FESTIVAL_HOP1_REVISED

    def test_context_grows_by_one_pair_per_hop(self, library, retriever):
        llm = LoggedScript(FESTIVAL_SCRIPT)
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        # deduction calls are 0, 2, 4 in the scripted call log
        deduction_prompts = [llm.calls[i][0].content for i in (0, 2, 4)]
        pairs = [format_step(h.index, h.sub_question, h.revised_answer)
                 for h in traj.hops]
        assert pairs[0] not in deduction_prompts[0]
        assert pairs[0] in deduction_prompts[1]
        assert pairs[1] not in deduction_prompts[1]
        assert pairs[0] in deduction_prompts[2]
        assert pairs[1] in deduction_prompts[2]
        assert deduction_prompts[2].index(pairs[0]) < deduction_prompts[2].index(pairs[1])

    def test_total_llm_calls_match_hops_and_batches(self, library, retriever):
        llm = LoggedScript(FESTIVAL_SCRIPT)
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        deductions = len(traj.hops) + 1  # final finish call
        groundings = sum(h.batches_consumed for h in traj.hops)
        assert len(llm.calls) == deductions + groundings

    def test_total_llm_calls_account_for_retries(self, library, retriever):
        # hop 1: deduction retried once, grounding retried once, then finish
        llm = LoggedScript(["unparseable", FESTIVAL_SCRIPT[0],
                            "bad grounding", FESTIVAL_SCRIPT[1],
                            "###Finish[done]"])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.termination is Termination.FINISH_SIGNAL
        deductions = len(traj.hops) + 1
        groundings = sum(h.batches_consumed for h in traj.hops)
        deduction_retries = 1
        grounding_retries = 1
        assert len(llm.calls) == (deductions + deduction_retries
                                  + groundings + grounding_retries)

    def test_token_usage_accumulates_every_call(self, library, retriever):
        llm = ScriptedClient(FESTIVAL_SCRIPT)
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert len(traj.token_usage.per_hop) == 2
        per_hop_total = sum(traj.token_usage.per_hop, start=TokenCounts())
        # the finish call's tokens appear in the total only
        assert traj.token_usage.total.prompt_tokens > per_hop_total.prompt_tokens
        assert traj.token_usage.total.completion_tokens > 0

    def test_unretrievable_sub_question_grounds_nothing(self, library,
                                                        retriever):
        step = "Question 1: ???\nAnswer 1: An answer."
        llm = ScriptedClient([step, "###Finish[An answer]"])
        traj = answer_question(FESTIVAL_QUESTION, config(), llm, retriever,
                               library)
        assert traj.hops[0].retrieved == ()
        assert traj.hops[0].batches_consumed == 0
        assert traj.hops[0].revised_answer == "An answer."


    def test_unexpected_error_keeps_completed_hops_and_tokens(
            self, library, retriever):
        class FailsAtHopTwo:
            calls = 0

            def retrieve(self, query, top_k):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("index went away")
                return retriever.retrieve(query, top_k)

        recorder = RecordingClient(ScriptedClient(FESTIVAL_SCRIPT))
        traj = answer_question(FESTIVAL_QUESTION, config(), recorder,
                               FailsAtHopTwo(), library)
        assert traj.termination is Termination.PARSE_FAILURE
        assert len(traj.hops) == 1
        assert traj.final_answer == FESTIVAL_HOP1_REVISED
        assert len(traj.token_usage.per_hop) == 1
        # the hop-2 deduction spent tokens before the retriever failed
        assert recorder.calls == 3
        assert traj.token_usage.total == recorder.totals


TEN_DOCS = [Document(id=f"d{r}", title=f"Doc {r}", body=f"text of doc {r}",
                     rank=r) for r in range(1, 11)]


class TenDocs:
    def retrieve(self, query, top_k):
        return TEN_DOCS[:top_k]


class TestStoredBodies:
    """A hop keeps the bodies of the windows the model read: ten documents
    at batch size 3 make the windows 1-3, 4-6, 7-9 and 10."""

    def run(self, library, groundings):
        llm = LoggedScript([STEP, *groundings, "###Finish[x]"])
        traj = answer_question(QUESTION, config(batch_size=3), llm, TenDocs(),
                               library)
        assert llm.remaining == 0
        return traj

    @staticmethod
    def kept(traj):
        [hop] = traj.hops
        assert [(d.id, d.title, d.rank) for d in hop.retrieved] == [
            (d.id, d.title, d.rank) for d in TEN_DOCS]
        assert all(d.body in (None, TEN_DOCS[d.rank - 1].body)
                   for d in hop.retrieved)
        return [d.rank for d in hop.retrieved if d.body is not None]

    def test_cited_in_window_one_keeps_ranks_one_to_three(self, library):
        assert self.kept(self.run(library, [CITED])) == [1, 2, 3]

    def test_cited_in_window_two_keeps_ranks_one_to_six(self, library):
        assert self.kept(self.run(library, [EMPTY, CITED])) == [*range(1, 7)]

    def test_every_window_empty_keeps_all_ten(self, library):
        traj = self.run(library, [EMPTY] * 4)
        assert traj.hops[0].batches_consumed == 4
        assert self.kept(traj) == [*range(1, 11)]

    def test_malformed_window_read_as_empty_counts_as_read(self, library):
        traj = self.run(library, ["garbage", "garbage again", CITED])
        assert traj.hops[0].batches_consumed == 2
        assert self.kept(traj) == [*range(1, 7)]

    def test_quote_from_another_window_is_kept_as_given(self, library):
        # doc 5 is in window two, yet window one's citation of it stands
        quoted = "<ref> text of doc 5 </ref> <revise> five </revise>"
        traj = self.run(library, [quoted])
        [hop] = traj.hops
        assert hop.grounding.citation == "text of doc 5"
        assert hop.revised_answer == "five"
        assert hop.batches_consumed == 1
        assert self.kept(traj) == [1, 2, 3]

    def test_null_bodies_round_trip_exactly(self, library, tmp_path):
        traj = self.run(library, [CITED])
        assert Trajectory.from_dict(traj.to_dict()) == traj
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_trajectories([traj], first)
        [line] = first.read_text(encoding="utf-8").splitlines()
        [hop] = json.loads(line)["hops"]
        assert sum("body" not in d for d in hop["retrieved"]) == 7
        assert '"body":null' not in line
        write_trajectories(load_trajectories(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_file_holding_every_body_still_loads(self, library, tmp_path):
        traj = self.run(library, [CITED])
        whole = replace(traj, hops=[replace(traj.hops[0], retrieved=TEN_DOCS)])
        write_trajectories([whole], tmp_path / "whole.jsonl")
        assert list(load_trajectories(tmp_path / "whole.jsonl")) == [whole]


class TestBM25Retriever:
    def test_empty_query_retrieves_nothing(self, retriever):
        assert retriever.retrieve("??? !!!", 5) == []


class TestAnswerDataset:
    def questions(self, n):
        return [Question(id=f"q{i}", text=f"Question number {i}?")
                for i in range(n)]

    def test_order_preserved_under_concurrency(self, library, retriever):
        llm = ScriptedClient(["###Finish[shared answer]"] * 3)
        trajs = answer_dataset(self.questions(3),
                               PipelineConfig(concurrency=2), llm, retriever,
                               library)
        assert [t.question.id for t in trajs] == ["q0", "q1", "q2"]
        assert all(t.final_answer == "shared answer" for t in trajs)

    def test_failure_is_isolated(self, library, retriever):
        llm = ScriptedClient(["###Finish[one]", "###Finish[two]"])
        trajs = answer_dataset(self.questions(3), config(), llm, retriever,
                               library)
        assert [t.termination for t in trajs] == [
            Termination.FINISH_SIGNAL, Termination.FINISH_SIGNAL,
            Termination.PARSE_FAILURE]
        assert trajs[2].final_answer == ""

    def test_unexpected_error_is_isolated(self, library):
        class Broken:
            def retrieve(self, query, top_k):
                raise RuntimeError("index went away")

        llm = ScriptedClient([FESTIVAL_SCRIPT[0], "###Finish[two]"])
        trajs = answer_dataset(self.questions(2), config(), llm, Broken(),
                               library)
        assert [t.termination for t in trajs] == [
            Termination.PARSE_FAILURE, Termination.FINISH_SIGNAL]
        assert trajs[0].token_usage.total.prompt_tokens > 0

    def test_progress_reported_per_completion(self, library, retriever):
        seen = []
        llm = ScriptedClient(["###Finish[x]"] * 2)
        answer_dataset(self.questions(2), config(), llm, retriever, library,
                       progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_replay_determinism_bytes(self, library, retriever, tmp_path):
        paths = []
        for run in range(2):
            llm = ScriptedClient(FESTIVAL_SCRIPT)
            trajs = answer_dataset([FESTIVAL_QUESTION], config(), llm,
                                   retriever, library)
            path = tmp_path / f"run{run}.jsonl"
            write_trajectories(trajs, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMapOrdered:
    def test_interrupt_starts_no_queued_item(self):
        ran = []
        lock = threading.Lock()

        def fn(item):
            with lock:
                ran.append(item)
            if item >= 2:
                time.sleep(0.2)  # still in flight when the interrupt lands
            return item

        def progress(done, total):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            list(map_ordered(fn, list(range(50)), 50, 2, progress))
        assert len(ran) <= 4

    def test_no_item_starts_beyond_the_look_ahead(self):
        gates = [threading.Event() for _ in range(8)]
        started = []
        unfinished = most_unfinished = 0
        lock = threading.Lock()

        def fn(item):
            nonlocal unfinished, most_unfinished
            with lock:
                started.append(item)
                unfinished += 1
                most_unfinished = max(most_unfinished, unfinished)
            assert gates[item].wait(timeout=5)
            with lock:
                unfinished -= 1
            return item

        stream = map_ordered(fn, list(range(8)), 8, 3)
        gates[0].set()
        assert next(stream) == 0  # items 1 and 2 are still running
        # a submitted item shows in ``started`` only once its thread runs
        deadline = time.monotonic() + 5
        while not {0, 1, 2} <= set(started) and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # room for a wrongly started item to show
        # item 3 may have taken item 0's slot; nothing past it may start
        assert sorted(started) in ([0, 1, 2], [0, 1, 2, 3])
        for gate in gates:
            gate.set()
        assert list(stream) == list(range(1, 8))
        assert most_unfinished <= 3

    def test_interrupt_yields_the_items_in_flight(self):
        gate = threading.Event()
        started = []

        def fn(item):
            started.append(item)
            if item != 1:
                assert gate.wait(timeout=5)
            return item

        def progress(done, total):
            gate.set()  # items 0 and 2 are in flight and now finish
            raise KeyboardInterrupt

        results = []
        with pytest.raises(KeyboardInterrupt):
            for result in map_ordered(fn, list(range(10)), 10, 3, progress):
                results.append(result)
        assert results == [0, 1, 2]
        assert sorted(started) == [0, 1, 2]

    def test_a_held_item_bounds_the_results_waiting_behind_it(self):
        held = threading.Event()
        finished = []
        lock = threading.Lock()

        def fn(item):
            if item == 0:
                assert held.wait(timeout=5)
            with lock:
                finished.append(item)
            return item

        results = []
        consumer = threading.Thread(target=lambda: results.extend(
            map_ordered(fn, list(range(1000)), 1000, 2)))
        consumer.start()
        time.sleep(0.2)  # room for the items behind item 0 to run
        with lock:
            behind = len(finished)
        held.set()
        consumer.join(timeout=5)
        assert behind <= 4 * 2 - 1
        assert results == list(range(1000))

    def test_closing_the_stream_early_starts_nothing_more(self):
        started = []
        lock = threading.Lock()

        def fn(item):
            with lock:
                started.append(item)
            return item

        stream = map_ordered(fn, list(range(100)), 100, 2)
        assert next(stream) == 0
        stream.close()  # the items in flight finish, and nothing is raised
        with lock:
            ran = sorted(started)
        time.sleep(0.05)  # room for a wrongly started item to show
        assert sorted(started) == ran
        assert ran == list(range(len(ran))) and len(ran) <= 4 * 2

    def test_pool_is_never_wider_than_the_work(self, monkeypatch):
        widths = []

        class Pool(pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
        barrier = threading.Barrier(3, timeout=5)  # all three at once
        threads = set()

        def fn(item):
            threads.add(threading.get_ident())
            barrier.wait()
            return item * 10

        assert list(map_ordered(fn, [1, 2, 3], 3, 2**64)) == [10, 20, 30]
        assert widths == [3] and len(threads) == 3
        assert list(map_ordered(fn, [], 0, 2**64)) == []
        assert widths == [3]  # no item starts no pool

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_error_ends_the_stream_at_its_item(self, concurrency):
        def fn(item):
            if item == 2:
                raise ValueError("bad item")
            return item

        results = []
        with pytest.raises(ValueError, match="bad item"):
            for result in map_ordered(fn, list(range(6)), 6, concurrency):
                results.append(result)
        assert results == [0, 1]


    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_items_that_end_before_total_end_the_stream(self, concurrency):
        seen = []
        results = within(5, lambda: list(map_ordered(
            lambda x: x * 10, iter([1, 2]), 5, concurrency,
            lambda done, total: seen.append((done, total)))))
        assert results == [10, 20]
        assert seen == [(1, 5), (2, 5)]

    def test_an_empty_iterator_yields_nothing(self):
        assert within(5, lambda: list(map_ordered(str, iter([]), 0, 3))) == []
        assert within(5, lambda: list(map_ordered(str, iter([]), 4, 3))) == []

    @pytest.mark.parametrize("concurrency", [1, 2, 3])
    def test_a_generator_is_never_read_past_the_look_ahead(self, concurrency):
        lock = threading.Lock()
        pulled = yielded = most_ahead = 0

        def items():
            nonlocal pulled, most_ahead
            for i in range(200):
                with lock:
                    pulled += 1
                    most_ahead = max(most_ahead, pulled - yielded)
                yield i

        def fn(item):
            time.sleep(0.001 * (item % 3))  # finishes out of input order
            return item

        def consume():
            nonlocal yielded
            results = []
            for result in map_ordered(fn, items(), 200, concurrency):
                results.append(result)
                with lock:
                    yielded += 1
            return results

        assert within(30, consume) == list(range(200))
        assert most_ahead <= 4 * concurrency


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.max_hops == 5
        assert cfg.top_k == 10
        assert cfg.batch_size == 3
        assert cfg.retriever == "bm25"
        assert cfg.concurrency == 4
        assert cfg.decoding.temperature == 0

    @pytest.mark.parametrize("bad", [
        {"max_hops": 0}, {"top_k": 0}, {"batch_size": 0},
        {"retriever": "dense"}, {"concurrency": 0}, {"max_hops": "3"},
        {"top_k": True}, {"concurrency": 2.0}, {"batch_size": "3"},
        {"decoding": {"temperature": 0}}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            PipelineConfig(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        cfg = PipelineConfig.from_dict({"max_hops": 2})
        assert cfg.max_hops == 2
        assert cfg.top_k == 10
        with pytest.raises(ValueError, match="pipeline.max_hop; did you "
                                             "mean pipeline.max_hops"):
            PipelineConfig.from_dict({"max_hop": 2})
        with pytest.raises(ValueError, match="decoding.max_tokens"):
            PipelineConfig.from_dict({"decoding": {"max_tokens": 9}})

    def test_round_trip(self):
        cfg = PipelineConfig(max_hops=3, batch_size=2)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


class TestRetrievalConfig:
    @pytest.mark.parametrize("kind, message", [
        ("external", "external retriever needs retrieval.external_endpoint"),
        ("bm25", "bm25 retriever needs retrieval.index_path or "
                 "retrieval.corpus_path"),
    ])
    def test_missing_source_raises_config_error(self, kind, message):
        with pytest.raises(ConfigError) as err:
            RetrievalConfig().retriever(kind)
        assert str(err.value) == message


class TestTrajectoryFiles:
    def test_write_then_load_round_trips(self, library, retriever, tmp_path):
        llm = ScriptedClient(FESTIVAL_SCRIPT)
        trajs = answer_dataset([FESTIVAL_QUESTION], config(), llm, retriever,
                               library)
        path = tmp_path / "trajectories.jsonl"
        write_trajectories(trajs, path)
        assert list(load_trajectories(path)) == trajs

    @staticmethod
    def write_lines(path, ids, last=None):
        """One finished trajectory per id, then ``last`` as a raw line."""
        write_trajectories(
            [Trajectory(Question(id=i, text="?"), (), "an answer",
                        Termination.FINISH_SIGNAL) for i in ids], path)
        if last is not None:
            with open(path, "a", encoding="utf-8") as f:
                f.write(last + "\n")

    def test_load_yields_each_line_before_a_bad_one(self, tmp_path):
        path = tmp_path / "trajectories.jsonl"
        self.write_lines(path, ["a", "b"], last="not a trajectory")
        stream = load_trajectories(path)
        assert [next(stream).question.id for _ in range(2)] == ["a", "b"]
        with pytest.raises(MalformedDataset) as err:
            next(stream)
        assert err.value.line == 3

    def test_load_raises_a_repeated_id_at_its_line(self, tmp_path):
        path = tmp_path / "trajectories.jsonl"
        self.write_lines(path, ["a", "b", "a", "c"])
        stream = load_trajectories(path)
        assert [next(stream).question.id for _ in range(2)] == ["a", "b"]
        with pytest.raises(MalformedDataset, match="repeated question id 'a'"
                           ) as err:
            next(stream)
        assert err.value.line == 3
