"""Shared test fixtures: the two-hop replay script, stub HTTP servers and
the input files of scripted CLI runs."""

import http.server
import json
import ssl
import threading

from hopground.core import Document, Question
from hopground.llm import Completion, ScriptedClient
from hopground.prompts import DOC_CHAR_BUDGET

# Two-hop documentary-festival walkthrough: the deduction/grounding scripts
# and the two wiki-style documents that support them.

FESTIVAL_QUESTION = Question(
    id="festival-months",
    text=("In what month is the annual documentary film festival, that is "
          "presented by the fortnightly published British journal of literary "
          "essays, held?"),
    gold_answers=("March and April",),
)

FESTIVAL_CORPUS = [
    Document(
        id="lidf",
        title="London International Documentary Festival",
        body=("The London International Documentary Festival (or LIDF) is an "
              "annual documentary film festival that takes place in the months "
              "of March and April every year. The event features screenings "
              "and talks across London."),
    ),
    Document(
        id="lrb",
        title="London Review of Books",
        body=("The London Review of Books (LRB) is a British journal of "
              "literary essays. It is published fortnightly from London."),
    ),
]

FESTIVAL_SCRIPT = [
    ("Question 1: What is the name of the annual documentary film festival "
     "presented by the fortnightly published British journal of literary "
     "essays? \nAnswer 1:  The Fortnightly Review Documentary Film Festival."),
    ("The document demonstrate <ref> The annual documentary film festival "
     "presented by the fortnightly published British journal of literary "
     "essays is called the London International Documentary Festival (LIDF) "
     "</ref>. <revise>the London International Documentary Festival (LIDF) "
     "</revise>."),
    ("Question 2: The annual documentary film festival presented by the "
     "fortnightly published British journal of literary essays is called the "
     "London International Documentary Festival (LIDF). In what month is LIDF "
     "held? \nAnswer 2: LIDF is held in the months of March and April* every "
     "year."),
    ("The document demonstrate <ref> The London International Documentary "
     "Festival (or LIDF) is an annual documentary film festival that takes "
     "place in the months of March and April every year </ref>. The revised "
     "answer is <revise> LIDF is held in the months of March and April every "
     "year </revise>."),
    "###Finish[March and April]",
]

FESTIVAL_HOP1_REVISED = "the London International Documentary Festival (LIDF)"
FESTIVAL_HOP2_REVISED = "LIDF is held in the months of March and April every year"
FESTIVAL_FINAL = "March and April"


class StubServer:
    """HTTP stub fed by a queue of (status, payload, headers) replies.

    ``payload`` may be a dict (sent as JSON) or a raw string.  Requests are
    recorded as parsed JSON bodies in ``requests``, their request targets in
    ``targets``, their headers in ``headers`` and the client address each
    arrived from in ``peers``.  A ``CONNECT`` is refused with 403, and its
    target recorded in ``targets``.  By default the server is single-threaded and speaks HTTP/1.0, so every
    connection closes after its reply; ``keep_alive=True`` makes it threaded
    and HTTP/1.1, so that a client can send several requests over one
    connection.  ``hang_up=True`` then closes each connection after its
    reply without saying so, as a server whose idle timeout ran out does;
    ``closed`` is set whenever the server has closed a connection.
    ``certfile`` (a PEM file with the certificate and its key) makes it
    speak https.
    """

    def __init__(self, keep_alive: bool = False, hang_up: bool = False,
                 certfile=None):
        self.replies: list[tuple[int, object, dict]] = []
        self.requests: list[dict] = []
        self.targets: list[str] = []
        self.headers: list[dict[str, str]] = []
        self.peers: list[tuple[str, int]] = []
        self.closed = threading.Event()
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            if keep_alive:
                protocol_version = "HTTP/1.1"

            def do_CONNECT(self):
                stub.targets.append(self.path)
                self.send_response(403)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                stub.targets.append(self.path)
                stub.headers.append(dict(self.headers))
                stub.peers.append(self.client_address)
                try:
                    stub.requests.append(json.loads(raw))
                except json.JSONDecodeError:
                    stub.requests.append({})
                status, payload, headers = (
                    stub.replies.pop(0) if stub.replies
                    else (500, {"error": "no reply queued"}, {}))
                body = (payload if isinstance(payload, str)
                        else json.dumps(payload)).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = self.close_connection or hang_up

            def log_message(self, *args):
                pass

        class Server(http.server.ThreadingHTTPServer if keep_alive
                     else http.server.HTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                stub.closed.set()

        self._server = Server(("127.0.0.1", 0), Handler)
        self._scheme = "https" if certfile else "http"
        if certfile:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile)
            self._server.socket = context.wrap_socket(self._server.socket,
                                                      server_side=True)
        # a short poll interval lets close() return in ~10 ms, not 0.5 s
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01},
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"{self._scheme}://127.0.0.1:{self._server.server_port}"

    def queue(self, status: int, payload, headers: dict | None = None) -> None:
        self.replies.append((status, payload, headers or {}))

    def queue_completion(self, text: str, prompt_tokens: int = 7,
                         completion_tokens: int = 3) -> None:
        self.queue(200, {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": prompt_tokens,
                      "completion_tokens": completion_tokens},
        })

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


class InFlightStub:
    """Threaded keep-alive (HTTP/1.1) chat-completions stub that holds every
    reply until ``width`` requests are in flight at once; ``most_in_flight``
    is the peak seen, and ``peers`` the client address of each request."""

    def __init__(self, width: int):
        self.most_in_flight = 0
        self.peers: list[tuple[str, int]] = []
        in_flight = 0
        lock = threading.Lock()
        barrier = threading.Barrier(width, timeout=5)
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                nonlocal in_flight
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with lock:
                    stub.peers.append(self.client_address)
                    in_flight += 1
                    stub.most_in_flight = max(stub.most_in_flight, in_flight)
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass  # fewer than width ever arrived; reply anyway
                with lock:
                    in_flight -= 1
                body = json.dumps({"choices": [{"message": {
                    "content": "###Finish[x]"}}]}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                       Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


class TrickleStub:
    """Loopback HTTP stub that answers every request 200 with ``body``, sent
    ``piece`` bytes at a time, ``interval`` seconds apart, as a server that
    stalls mid-reply does; then it closes the connection.  ``chunked=True``
    sends one chunk per piece, and ``length`` declares a Content-Length
    other than the body's.  ``head=True`` sends the status line, then the
    header block in pieces and the body at once.  ``requests`` counts the
    requests."""

    def __init__(self, body: bytes, interval: float, piece: int = 1,
                 chunked: bool = False, length: int | None = None,
                 head: bool = False):
        self.requests = 0
        # the pieces wait on an event, not on time.sleep, which tests patch
        stopped = self._stopped = threading.Event()
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                stub.requests += 1
                if head:
                    self.wfile.write(b"HTTP/1.1 200 OK\r\n")
                    headers = (b"Content-Length: %d\r\nConnection: close"
                               b"\r\n\r\n" % len(body))
                    try:
                        for i in range(0, len(headers), piece):
                            self.wfile.write(headers[i:i + piece])
                            stopped.wait(interval)
                        self.wfile.write(body)
                    except OSError:
                        pass  # the client gave up and closed the connection
                    self.close_connection = True
                    return
                self.send_response(200)
                if chunked:
                    self.send_header("Transfer-Encoding", "chunked")
                else:
                    self.send_header("Content-Length", str(
                        len(body) if length is None else length))
                self.send_header("Connection", "close")
                self.end_headers()
                try:
                    for i in range(0, len(body), piece):
                        part = body[i:i + piece]
                        self.wfile.write(b"%x\r\n%s\r\n" % (len(part), part)
                                         if chunked else part)
                        stopped.wait(interval)
                    if chunked:
                        self.wfile.write(b"0\r\n\r\n")
                except OSError:
                    pass  # the client gave up and closed the connection
                self.close_connection = True

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                       Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01},
                                        daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}"

    def close(self) -> None:
        self._stopped.set()
        self._server.shutdown()
        self._server.server_close()


def within(seconds, fn):
    """``fn()`` on a daemon thread, failing the test if it is still running
    after ``seconds``, so a call that never returns cannot hang the run.
    An exception out of ``fn`` is raised here."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # handed to the test's thread
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class LoggedScript(ScriptedClient):
    """A ``ScriptedClient`` that logs each request it answers in ``calls``,
    for call-order assertions; ``remaining`` is the replies not yet handed
    out.  It logs under the lock that hands out the replies, made reentrant,
    so the log order is the reply order under any number of threads."""

    def __init__(self, responses):
        super().__init__(responses)
        self._lock = threading.RLock()
        self.calls = []

    def complete(self, messages, params):
        with self._lock:
            completion = super().complete(messages, params)
            self.calls.append(list(messages))
        return completion

    @property
    def remaining(self):
        return len(self._responses) - len(self.calls)


class KeyedClient:
    """Chat stub whose reply depends on the prompt alone, not on call order:
    ``reply(prompt)`` of the last message, so any number of threads get the
    same replies.  With ``interrupt_after`` the call after that many raises
    ``KeyboardInterrupt``, as a Ctrl-C landing in a model call does."""

    def __init__(self, reply, interrupt_after=None):
        self.reply = reply
        self.interrupt_after = interrupt_after
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, messages, params):
        with self._lock:
            self.calls += 1
            if self.calls - 1 == self.interrupt_after:
                raise KeyboardInterrupt
        prompt = messages[-1].content
        text = self.reply(prompt)
        return Completion(text=text, prompt_tokens=len(prompt.split()),
                          completion_tokens=len(text.split()))


# one document record each, read the same way from a corpus file, from an
# external retrieval reply and from a synthesis input
BAD_DOCUMENTS = [
    {"id": "a", "title": "T", "body": None},
    {"id": "a", "title": "T", "body": 5},
    {"id": "a", "title": "T", "body": ["text"]},
    {"id": "a", "title": "T"},
    {"id": None, "title": "T", "body": "text"},
    {"id": ["a"], "title": "T", "body": "text"},
    {"id": "a", "title": {"t": 1}, "body": "text"},
    {"id": "a", "title": True, "body": "text"},
    "a bare string",
]
OPTIONAL_TITLE_DOCUMENTS = [
    ({"id": "a", "body": "text"}, Document("a", "", "text")),
    ({"id": "a", "title": None, "body": "text"}, Document("a", "", "text")),
    ({"id": 7, "title": "T", "body": "text"}, Document("7", "T", "text")),
]


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_json(path, payload):
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


def write_festival_files(directory, questions=(FESTIVAL_QUESTION,),
                         script=FESTIVAL_SCRIPT) -> dict:
    """Corpus, dataset, script and config for a scripted ``run`` over the
    festival corpus; ``out`` is the output directory to pass to it."""
    corpus = directory / "corpus.jsonl"
    write_jsonl(corpus, [d.to_dict() for d in FESTIVAL_CORPUS])
    dataset = directory / "dataset.jsonl"
    write_jsonl(dataset, [{"id": q.id, "question": q.text,
                           "answers": list(q.gold_answers)}
                          for q in questions])
    script_path = write_json(directory / "script.json", list(script))
    config = write_json(directory / "config.json", {
        "pipeline": {"concurrency": 1},
        "llm": {"backend": "scripted", "script_path": str(script_path)},
        "retrieval": {"corpus_path": str(corpus)},
    })
    return {"corpus": corpus, "dataset": dataset, "script": script_path,
            "config": config, "out": directory / "out"}


def assert_gold_slot(line, gold_doc) -> None:
    """A corpus line's ``doc_ids`` hold the input's gold document at
    ``gold_position``, and its instruction's block of that slot shows the
    document's body, cut as every grounding prompt cuts it; ``gold_doc``
    is the document's JSON object in the synthesis inputs file."""
    position = line["gold_position"]
    assert line["doc_ids"][position - 1] == gold_doc["id"]
    body = gold_doc["body"][:DOC_CHAR_BUDGET].rstrip()
    block = f"[{position}] {gold_doc['title']}\n{body}"
    blocks = line["instruction"].split("\n\nDocuments:\n", 1)[1]
    assert block in blocks.split("\n\n")


KEEP_TARGET = "<ref> Paris is the capital of France </ref> <revise> Paris </revise>"


def write_synth_files(directory) -> dict:
    """Inputs and config for a scripted ``synth`` of ten examples, of which
    the teacher flubs numbers 3 and 7."""
    inputs = []
    for i in range(10):
        inputs.append({
            "id": f"s{i}", "question": f"What is the capital of France ({i})?",
            "answer": "Paris",
            "gold_doc": {"id": f"g{i}", "title": "France",
                         "body": "Paris is the capital and largest city of France."},
            "noise_docs": [{"id": f"n{i}-{j}", "title": "Noise",
                            "body": f"Filler text {j}."} for j in range(3)],
        })
    input_path = directory / "inputs.jsonl"
    write_jsonl(input_path, inputs)

    student_script = write_json(directory / "student.json", ["Paris."] * 10)
    teacher_replies = [KEEP_TARGET] * 10
    teacher_replies[3] = "<ref> Empty </ref>"
    teacher_replies[7] = "<ref> Paris is the capital of France </ref> no revision"
    teacher_script = write_json(directory / "teacher.json", teacher_replies)

    config = write_json(directory / "synth-config.json", {
        "student_llm": {"backend": "scripted", "script_path": str(student_script)},
        "teacher_llm": {"backend": "scripted", "script_path": str(teacher_script)},
    })
    return {"input": input_path, "config": config, "dir": directory}
