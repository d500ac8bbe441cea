#include "gammaflow/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/error.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::serve {

namespace {

std::string reply_str(JsonObj fields) {
  return Json(std::move(fields)).to_string();
}

/// Every error reply: ok:false + a stable machine code + a human message.
/// The codes are part of the protocol (DESIGN §14) — tests match on them.
std::string error_reply(const char* code, const std::string& message,
                        JsonObj extra = {}) {
  extra.insert_or_assign("ok", Json(false));
  extra.insert_or_assign("error", Json(std::string(code)));
  extra.insert_or_assign("message", Json(message));
  return reply_str(std::move(extra));
}

/// Outcome -> the protocol's error code ("deadline_exceeded",
/// "budget_exhausted", "cancelled"); nullptr for Completed.
const char* outcome_error_code(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Completed: return nullptr;
    case Outcome::DeadlineExceeded: return "deadline_exceeded";
    case Outcome::BudgetExhausted: return "budget_exhausted";
    case Outcome::Cancelled: return "cancelled";
  }
  return nullptr;
}

std::string unknown_session(std::string_view id) {
  return error_reply("unknown_session",
                     std::string("no session '").append(id).append("'"),
                     {{"session", Json(std::string(id))}});
}

JsonObj counts_to_json(const obs::StoreCounts& counts) {
  JsonObj obj;
  for (const auto& [elem, n] : counts) obj.insert_or_assign(elem, Json(n));
  return obj;
}

void fill_inject_reply(JsonObj& reply, const Session::InjectResult& r) {
  reply.insert_or_assign("fires", Json(r.fires));
  reply.insert_or_assign("fires_total", Json(r.fires_total));
  reply.insert_or_assign("store_size",
                         Json(static_cast<std::int64_t>(r.store_size)));
  reply.insert_or_assign("quiesce_us", Json(r.quiesce_us));
  reply.insert_or_assign("outcome", Json(std::string(to_string(r.outcome))));
}

/// The completed inject's reply, written straight into `out` with its keys
/// in the order a JsonObj sorts them: the bytes fill_inject_reply plus
/// {"ok":true} would print.
void append_inject_reply(std::string& out, const Session::InjectResult& r) {
  out += "{\"fires\":";
  append_json_int(out, static_cast<std::int64_t>(r.fires));
  out += ",\"fires_total\":";
  append_json_int(out, static_cast<std::int64_t>(r.fires_total));
  out += ",\"ok\":true,\"outcome\":";
  append_json_string(out, to_string(r.outcome));
  out += ",\"quiesce_us\":";
  append_json_real(out, r.quiesce_us);
  out += ",\"store_size\":";
  append_json_int(out, static_cast<std::int64_t>(r.store_size));
  out += '}';
}

}  // namespace

std::optional<InjectLine> read_inject_line(std::string_view line) {
  std::size_t pos = 0;
  const auto skip_blanks = [&] {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
  };
  const auto take = [&](char c) {
    skip_blanks();
    if (pos == line.size() || line[pos] != c) return false;
    ++pos;
    return true;
  };
  // A string with no escape: the bytes up to its closing quote.
  const auto string = [&]() -> std::optional<std::string_view> {
    if (!take('"')) return std::nullopt;
    std::size_t end = pos;
    while (end < line.size() && line[end] != '"' && line[end] != '\\') ++end;
    if (end == line.size() || line[end] != '"') return std::nullopt;
    const std::string_view s = line.substr(pos, end - pos);
    pos = end + 1;
    return s;
  };
  if (!take('{')) return std::nullopt;
  std::optional<std::string_view> verb;
  std::optional<std::string_view> session;
  std::optional<std::string_view> elements;
  for (int i = 0; i < 3; ++i) {
    if (i > 0 && !take(',')) return std::nullopt;
    const std::optional<std::string_view> key = string();
    if (!key || !take(':')) return std::nullopt;
    std::optional<std::string_view>* slot = *key == "verb"       ? &verb
                                            : *key == "session"  ? &session
                                            : *key == "elements" ? &elements
                                                                 : nullptr;
    if (slot == nullptr || slot->has_value()) return std::nullopt;
    *slot = string();
    if (!*slot) return std::nullopt;
  }
  if (!take('}')) return std::nullopt;
  skip_blanks();
  if (pos != line.size() || *verb != "inject") return std::nullopt;
  return InjectLine{*session, *elements};
}

std::string session_journal_path(const std::string& record_out,
                                 const std::string& session) {
  const std::size_t slash = record_out.find_last_of('/');
  const std::size_t dot = record_out.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return record_out + "." + session;
  }
  return record_out.substr(0, dot) + "." + session + record_out.substr(dot);
}

Server::Server(ServeOptions options) : options_(std::move(options)) {}

std::size_t Server::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::shared_ptr<Session> Server::find_session(std::string_view id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::string Server::handle_line(std::string_view line) {
  std::string out;
  handle_line(line, out);
  return out;
}

void Server::handle_line(std::string_view line, std::string& out) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Telemetry* tel = options_.telemetry) {
    tel->stats().count("serve.requests");
  }
  const std::size_t start = out.size();
  try {
    if (const std::optional<InjectLine> inject = read_inject_line(line)) {
      verb_inject(inject->session, inject->elements, out);
      return;
    }
    const Json req = parse_json(line);
    if (!req.is_obj()) {
      out += error_reply("bad_request", "request must be a JSON object");
      return;
    }
    dispatch(req, out);
  } catch (const WireError& e) {
    out.resize(start);
    out += error_reply("bad_request", e.what());
  } catch (const Error& e) {
    out.resize(start);
    out += error_reply("internal", e.what());
  } catch (const std::exception& e) {
    out.resize(start);
    out += error_reply("internal", e.what());
  }
}

void Server::dispatch(const Json& req, std::string& out) {
  const Json* verb = req.get("verb");
  if (verb == nullptr || !verb->is_str()) {
    out += error_reply("bad_request", "missing string field 'verb'");
    return;
  }
  const std::string& v = verb->as_str();
  if (v == "inject") {
    verb_inject(req, out);
  } else if (v == "ping") {
    out += reply_str({{"ok", Json(true)}, {"pong", Json(true)}});
  } else if (v == "create") {
    out += verb_create(req);
  } else if (v == "query") {
    out += verb_query(req);
  } else if (v == "snapshot") {
    out += verb_snapshot(req);
  } else if (v == "stats") {
    out += verb_stats(req);
  } else if (v == "close") {
    out += verb_close(req);
  } else if (v == "shutdown") {
    out += verb_shutdown();
  } else {
    out += error_reply("unknown_verb", "no such verb '" + v + "'",
                       {{"verb", Json(v)}});
  }
}

std::string Server::verb_create(const Json& req) {
  const std::string program_text =
      req.str_or("program", options_.default_program);
  if (program_text.empty()) {
    return error_reply("bad_program",
                       "no 'program' field and the daemon has no default");
  }
  gamma::Program program;
  try {
    program = gamma::dsl::parse_program(program_text);
  } catch (const Error& e) {
    return error_reply("bad_program", e.what());
  }
  if (program.stage_count() > 1) {
    return error_reply(
        "multi_stage_unsupported",
        "serve sessions host single-stage programs; `;` sequencing has no "
        "incremental meaning under streaming injection");
  }
  gamma::FlatElements init;
  try {
    gamma::dsl::read_elements(req.str_or("init", ""), init);
  } catch (const Error& e) {
    return error_reply("bad_elements", e.what());
  }

  SessionOptions sopts;
  sopts.worklist.deadline = req.num_or("deadline", options_.deadline);
  sopts.worklist.max_steps = static_cast<std::uint64_t>(
      req.int_or("max_steps", static_cast<std::int64_t>(options_.max_steps)));
  sopts.worklist.seed = static_cast<std::uint64_t>(
      req.int_or("seed", static_cast<std::int64_t>(options_.seed)));
  sopts.worklist.telemetry = options_.telemetry;
  sopts.record = req.bool_or("record", !options_.record_out.empty());

  std::string id = req.str_or("session", "");
  std::shared_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions) {
      return error_reply(
          "session_limit",
          "session cap reached (" + std::to_string(options_.max_sessions) +
              "); close a session or raise --max-sessions");
    }
    if (id.empty()) {
      id = std::string("s").append(std::to_string(next_id_++));
    } else if (sessions_.count(id) > 0) {
      return error_reply("duplicate_session",
                         "session '" + id + "' already exists",
                         {{"session", Json(id)}});
    }
    session = std::make_shared<Session>(id, std::move(program), sopts);
    sessions_.emplace(id, session);
  }

  JsonObj reply{{"ok", Json(true)}, {"session", Json(id)}};
  Session::InjectResult r = session->inject(init);  // initial saturation
  fill_inject_reply(reply, r);
  return reply_str(std::move(reply));
}

void Server::verb_inject(const Json& req, std::string& out) {
  const std::string id = req.str_or("session", "");
  // `elements` is read only once the session is known: a request that names
  // no live session is unknown_session whatever its `elements` holds.
  if (!find_session(id)) {
    out += unknown_session(id);
    return;
  }
  verb_inject(id, req.str_or("elements", ""), out);
}

void Server::verb_inject(std::string_view id, std::string_view elements,
                         std::string& out) {
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) {
    out += unknown_session(id);
    return;
  }
  // One buffer per connection thread, reused from inject to inject.
  thread_local gamma::FlatElements flat;
  try {
    gamma::dsl::read_elements(elements, flat);
  } catch (const Error& e) {
    out += error_reply("bad_elements", e.what());
    return;
  }
  const Session::InjectResult r = session->inject(flat);
  if (const char* code = outcome_error_code(r.outcome)) {
    // The drain stopped early: the store is a valid intermediate state and
    // a later inject resumes it, but the fixpoint was NOT reached — an
    // error reply with partial:true, per DESIGN §14.
    JsonObj reply;
    fill_inject_reply(reply, r);
    reply.insert_or_assign("partial", Json(true));
    out += error_reply(code, "inject stopped before quiescence",
                       std::move(reply));
    return;
  }
  append_inject_reply(out, r);
}

std::string Server::verb_query(const Json& req) {
  const std::string id = req.str_or("session", "");
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) return unknown_session(id);
  JsonObj reply{{"ok", Json(true)}};
  if (const Json* element = req.get("element")) {
    gamma::Multiset parsed;
    try {
      parsed = gamma::dsl::parse_elements(element->as_str());
    } catch (const Error& e) {
      return error_reply("bad_elements", e.what());
    }
    if (parsed.size() != 1) {
      return error_reply("bad_elements",
                         "'element' must hold exactly one element");
    }
    reply.insert_or_assign("count",
                           Json(session->count_element(*parsed.begin())));
  } else if (const Json* label = req.get("label")) {
    reply.insert_or_assign("count", Json(session->count_label(label->as_str())));
  } else {
    reply.insert_or_assign(
        "store_size", Json(static_cast<std::int64_t>(session->store_size())));
  }
  return reply_str(std::move(reply));
}

std::string Server::verb_snapshot(const Json& req) {
  const std::string id = req.str_or("session", "");
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) return unknown_session(id);
  const obs::StoreCounts counts = session->snapshot_counts();
  std::int64_t total = 0;
  for (const auto& [elem, n] : counts) total += n;
  return reply_str({{"ok", Json(true)},
                    {"store", Json(counts_to_json(counts))},
                    {"store_size", Json(total)}});
}

std::string Server::verb_stats(const Json& req) {
  const std::string id = req.str_or("session", "");
  if (id.empty()) {
    return reply_str(
        {{"ok", Json(true)},
         {"sessions", Json(static_cast<std::int64_t>(session_count()))},
         {"requests",
          Json(static_cast<std::int64_t>(
              requests_.load(std::memory_order_relaxed)))}});
  }
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) return unknown_session(id);
  const runtime::WorklistStats s = session->stats();
  const HistogramSnapshot h = session->quiesce_histogram();
  return reply_str({{"ok", Json(true)},
                    {"session", Json(id)},
                    {"injected", Json(s.injected)},
                    {"injects", Json(s.injects)},
                    {"fires", Json(s.fires)},
                    {"wakeups", Json(s.wakeups)},
                    {"rematches", Json(s.rematches)},
                    {"quiesce_p50_us", Json(h.quantile(0.50))},
                    {"quiesce_p99_us", Json(h.quantile(0.99))}});
}

void Server::finish_session(Session& session, JsonObj& reply) {
  if (!session.recording()) return;
  obs::Journal journal = session.close();
  if (!options_.record_out.empty()) {
    const std::string path =
        session_journal_path(options_.record_out, session.id());
    std::ofstream out(path);
    if (!out) {
      reply.insert_or_assign("journal_error",
                             Json("cannot write " + path));
      return;
    }
    obs::write_journal(out, journal);
    out << '\n';
    reply.insert_or_assign("journal_path", Json(path));
    return;
  }
  // No stem configured: hand the journal back inline (budget-capped by
  // RecorderLimits, so the reply stays a sane single line).
  reply.insert_or_assign("journal",
                         parse_json(obs::journal_to_string(journal)));
}

std::string Server::verb_close(const Json& req) {
  const std::string id = req.str_or("session", "");
  std::shared_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      session = it->second;
      sessions_.erase(it);
    }
  }
  if (!session) return unknown_session(id);
  JsonObj reply{{"ok", Json(true)},
                {"session", Json(id)},
                {"fires_total", Json(session->stats().fires)}};
  finish_session(*session, reply);
  return reply_str(std::move(reply));
}

void Server::close_all_sessions() {
  std::map<std::string, std::shared_ptr<Session>, std::less<>> doomed;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(sessions_);
  }
  for (auto& [id, session] : doomed) {
    JsonObj scratch;
    finish_session(*session, scratch);
  }
}

std::string Server::verb_shutdown() {
  close_all_sessions();
  shutdown_.store(true, std::memory_order_release);
  return reply_str({{"ok", Json(true)}, {"shutdown", Json(true)}});
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  std::string line;
  std::string reply;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    reply.clear();
    handle_line(line, reply);
    reply.push_back('\n');
    out << reply << std::flush;
  }
}

// ----------------------------------------------------------------- socket

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kNoSigpipe = MSG_NOSIGNAL;
#else
constexpr int kNoSigpipe = 0;
#endif

/// send(2) the whole buffer, riding out partial writes and EINTR. A peer
/// that hung up makes it return false (EPIPE) instead of raising SIGPIPE,
/// which would end the daemon and every tenant's session with it.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, kNoSigpipe);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void LineSplitter::append(const char* data, std::size_t size) {
  if (begin_ > 0) {
    buffer_.erase(0, begin_);
    scanned_ -= begin_;
    begin_ = 0;
  }
  buffer_.append(data, size);
}

std::optional<std::string_view> LineSplitter::next() {
  const std::size_t nl = buffer_.find('\n', scanned_);
  if (nl == std::string::npos) {
    scanned_ = buffer_.size();
    return std::nullopt;
  }
  const std::string_view line(buffer_.data() + begin_, nl - begin_);
  begin_ = scanned_ = nl + 1;
  return line;
}

int Server::serve_socket() {
  const std::string& path = options_.socket_path;
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return 1;
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return 1;
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    return 1;
  }

  std::vector<std::thread> workers;
  while (!shutdown_requested()) {
    // Poll with a timeout so a shutdown verb handled on a connection
    // thread breaks the accept loop within ~200ms.
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    workers.emplace_back([this, conn] {
      LineSplitter lines;
      std::string reply;  // each reply and its '\n', one write(2) each
      char chunk[4096];
      while (true) {
        const ssize_t n = ::read(conn, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        lines.append(chunk, static_cast<std::size_t>(n));
        while (const std::optional<std::string_view> line = lines.next()) {
          if (line->empty()) continue;
          reply.clear();
          handle_line(*line, reply);
          reply.push_back('\n');
          if (!write_all(conn, reply)) break;
        }
        if (shutdown_requested()) break;
      }
      ::close(conn);
    });
  }
  for (std::thread& t : workers) t.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

// ----------------------------------------------------------------- client

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("serve client: bad socket path '" + socket_path + "'");
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("serve client: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("serve client: cannot connect to " + socket_path + ": " +
                std::strerror(errno));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::call(const std::string& request) {
  if (!write_all(fd_, request + '\n')) {
    throw Error("serve client: send failed: " + std::string(std::strerror(errno)));
  }
  char chunk[4096];
  while (true) {
    if (const std::optional<std::string_view> line = lines_.next()) {
      return std::string(*line);
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("serve client: daemon hung up mid-reply");
    lines_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace gammaflow::serve
