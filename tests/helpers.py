"""Shared test fixtures: the two-hop replay script and stub HTTP servers."""

import http.server
import json
import threading

from hopground.core import Document, Question

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
    """Single-threaded HTTP stub fed by a queue of (status, payload) replies.

    ``payload`` may be a dict (sent as JSON) or a raw string.  Requests are
    recorded as parsed JSON bodies in ``requests``.
    """

    def __init__(self):
        self.replies: list[tuple[int, object]] = []
        self.requests: list[dict] = []
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    stub.requests.append(json.loads(raw))
                except json.JSONDecodeError:
                    stub.requests.append({})
                status, payload = (stub.replies.pop(0) if stub.replies
                                   else (500, {"error": "no reply queued"}))
                body = (payload if isinstance(payload, str)
                        else json.dumps(payload)).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def queue(self, status: int, payload) -> None:
        self.replies.append((status, payload))

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
    """Threaded chat-completions stub that holds every reply until ``width``
    requests are in flight at once; ``most_in_flight`` is the peak seen."""

    def __init__(self, width: int):
        self.most_in_flight = 0
        in_flight = 0
        lock = threading.Lock()
        barrier = threading.Barrier(width, timeout=5)
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                nonlocal in_flight
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with lock:
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


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")
