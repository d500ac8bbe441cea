// The `gammaflow serve` daemon core: multi-tenant sessions behind a
// line-delimited JSON protocol (one request object per line in, one reply
// object per line out; every reply carries "ok"). The protocol — every
// verb, field, and error reply — is specified in DESIGN §14; this header
// only names the moving parts:
//
//   ServeOptions — daemon-wide defaults (socket path, session cap, default
//                  per-inject deadline and per-session budget, journal stem).
//   Server       — verb dispatch (handle_line is the whole protocol; the
//                  stream and socket fronts are thin line pumps over it),
//                  the session table, and the Unix-socket accept loop
//                  (thread per connection; sessions serialize internally).
//                  An inject line of the plain shape read_inject_line
//                  accepts skips the JSON DOM; every other line is parsed
//                  by parse_json, and both give the same reply bytes.
//   LineSplitter — cuts a socket's byte stream into lines, each byte
//                  searched once.
//   Client       — blocking line-oriented socket client (bench_serve's load
//                  generator and the CI smoke script).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "gammaflow/common/json.hpp"
#include "gammaflow/serve/session.hpp"

namespace gammaflow::obs {
class Telemetry;
}

namespace gammaflow::serve {

struct ServeOptions {
  /// Unix-domain socket path for serve_socket(); serve_stream() (stdio
  /// mode, `--stdio`) ignores it.
  std::string socket_path;
  std::size_t max_sessions = 64;
  /// Default per-inject deadline in seconds (create may override); <= 0
  /// disables.
  double deadline = 0.0;
  /// Default lifetime firing budget per session (create may override).
  std::uint64_t max_steps = 50'000'000;
  std::uint64_t seed = 1;
  /// Journal path stem: session journals are written on close to
  /// "<stem>.<session>.<ext>" ("" = sessions record only when the create
  /// request asks, and the journal is returned inline in the close reply).
  std::string record_out;
  /// DSL program used when a create request has no "program" field.
  std::string default_program;
  obs::Telemetry* telemetry = nullptr;
};

class Server {
 public:
  explicit Server(ServeOptions options);

  /// One request line -> one reply line (no trailing newline), appended to
  /// `out`. Never throws: malformed input and failed verbs become
  /// {"ok":false,"error":"<code>", ...} replies.
  void handle_line(std::string_view line, std::string& out);
  [[nodiscard]] std::string handle_line(std::string_view line);

  /// Pumps requests line-by-line until EOF or a shutdown verb — the
  /// `--stdio` front and the in-process protocol tests.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Binds options.socket_path, accepts until a shutdown verb (thread per
  /// connection). Returns 0 on clean shutdown, 1 on socket setup failure.
  int serve_socket();

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t session_count() const;

 private:
  [[nodiscard]] std::shared_ptr<Session> find_session(
      std::string_view id) const;
  void dispatch(const Json& req, std::string& out);
  std::string verb_create(const Json& req);
  void verb_inject(const Json& req, std::string& out);
  /// The one inject: reads the element text whole, then injects it into the
  /// session and appends the reply. Both the DOM path and the plain-line
  /// path end here.
  void verb_inject(std::string_view session, std::string_view elements,
                   std::string& out);
  std::string verb_query(const Json& req);
  std::string verb_snapshot(const Json& req);
  std::string verb_stats(const Json& req);
  std::string verb_close(const Json& req);
  std::string verb_shutdown();
  /// Closes every session (flushing journals); shutdown's cleanup.
  void close_all_sessions();
  /// Finalizes one session: journal to "<stem>.<id>.<ext>" or inline.
  void finish_session(Session& session, JsonObj& reply);

  ServeOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions_;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
};

/// An inject request of the one plain shape: an object whose keys are
/// exactly "verb" (value "inject"), "session" and "elements", once each, in
/// any order, every value a string with no escape, and no whitespace but
/// space and tab. The views point into the line.
struct InjectLine {
  std::string_view session;
  std::string_view elements;
};

/// `line` read as an InjectLine in one pass, or nullopt for any other line,
/// which handle_line then parses with parse_json.
[[nodiscard]] std::optional<InjectLine> read_inject_line(std::string_view line);

/// Cuts a byte stream into '\n'-terminated lines. Each byte is searched for
/// the newline once, however many appends a line spans, and the bytes of
/// lines already handed out are dropped once per append, so framing a line
/// costs time linear in its length.
class LineSplitter {
 public:
  /// Adds bytes just read. Views next() returned before are invalidated.
  void append(const char* data, std::size_t size);
  /// The next complete line without its '\n', or nullopt when no complete
  /// line is buffered.
  [[nodiscard]] std::optional<std::string_view> next();

 private:
  std::string buffer_;
  std::size_t begin_ = 0;    // first byte not yet handed out
  std::size_t scanned_ = 0;  // bytes before this hold no unread '\n'
};

/// Blocking client for the daemon's Unix socket. Throws Error when the
/// socket cannot be reached or the daemon hangs up mid-reply.
class Client {
 public:
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line, blocks for the one reply line (stripped).
  [[nodiscard]] std::string call(const std::string& request);

 private:
  int fd_ = -1;
  LineSplitter lines_;
};

/// Journal output path for one session: "<stem>.<session>.<ext>" derived
/// from the daemon's --record-out value (e.g. "runs/serve.json" + "s1" ->
/// "runs/serve.s1.json"). Exposed for the CLI and tests.
[[nodiscard]] std::string session_journal_path(const std::string& record_out,
                                               const std::string& session);

}  // namespace gammaflow::serve
