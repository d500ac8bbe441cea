// gammaflow — command-line front door to the library.
//
//   gammaflow compile  <prog.src>             imperative source -> graph text
//   gammaflow run      <prog.src|graph.df>    execute as dataflow, print outputs
//   gammaflow togamma  <prog.src|graph.df>    Algorithm 1 -> Gamma program + M
//   gammaflow rungamma <prog.gamma> --init "<elements>" [--engine seq|idx|par]
//   gammaflow fuse     <prog.gamma> [--init "<elements>"]      SIII-A3 reduction
//                                             (the optimizer's planner, every
//                                             safe fusion, nothing removed)
//   gammaflow expand   <prog.gamma>                            inverse reduction
//   gammaflow optimize <prog.gamma> [--init "<elements>"]      analysis-driven
//                                             auto-reduction (cost-gated)
//   gammaflow reconstruct <prog.gamma> --init "<elements>"     Gamma -> graph
//   gammaflow distrib  <prog.gamma> --init "<elements>" [--nodes N ...]
//                                             simulated cluster (+ faults)
//   gammaflow dot      <prog.src|graph.df|prog.gamma>   Graphviz output
//   gammaflow viz      <any input>            self-contained interactive HTML
//                                             (or DOT via --format dot)
//
// Input kind is decided by extension: .src (imperative), .df (graph text),
// .gamma (DSL). Elements for --init use the DSL tuple syntax:
//   "[1,'A1'] [5,'B1'] [3,'C1',0]"
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gammaflow/common/fault.hpp"
#include "gammaflow/common/logging.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/obs/report.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/obs/trace_export.hpp"
#include "gammaflow/dataflow/optimize.hpp"
#include "gammaflow/dataflow/serialize.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/expr/simplify.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/runtime/worklist.hpp"
#include "gammaflow/serve/server.hpp"
#include "gammaflow/viz/viz.hpp"
#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/analysis/lint.hpp"
#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/analysis/verify_df.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"
#include "gammaflow/translate/reduce.hpp"

using namespace gammaflow;

namespace {

void print_usage(std::ostream& out) {
  out <<
      "usage: gammaflow <command> <file> [options]\n"
      "  compile <prog.src>                    source -> dataflow graph text\n"
      "  run <prog.src|graph.df>               execute as dataflow\n"
      "  togamma <prog.src|graph.df>           Algorithm 1\n"
      "  rungamma <prog.gamma> --init \"...\"    execute by rewriting\n"
      "  fuse <prog.gamma> [--init \"...\"]      SIII-A3 reduction: every\n"
      "                                        fusion the optimize planner\n"
      "                                        proves safe, without its cost\n"
      "                                        gate or dead-reaction removal\n"
      "  expand <prog.gamma>                   inverse reduction\n"
      "  optimize <prog.gamma> [--init \"...\"]  analysis-driven auto-reduction:\n"
      "                                        fuse feed chains, drop dead\n"
      "                                        reactions, gated by the cost\n"
      "                                        model; prints the rewritten\n"
      "                                        program (see --report/--json)\n"
      "  reconstruct <prog.gamma> --init \"...\" Gamma -> dataflow graph\n"
      "  dot <prog.src|graph.df|prog.gamma>    Graphviz (.gamma renders the\n"
      "                                        interference graph; pick with\n"
      "                                        --graph)\n"
      "  viz <any input> [--out f.html]        self-contained interactive HTML\n"
      "                                        (graph + store scrubber +\n"
      "                                        provenance); runs the input\n"
      "                                        with recording unless --journal\n"
      "  opt <prog.src|graph.df>               optimize (fold/bypass/DCE)\n"
      "  lint <prog.gamma> [--init \"...\"]     static Gamma checks\n"
      "  check <any input> [--init \"...\"]     ALL static passes: lint +\n"
      "                                        interference/confluence on\n"
      "                                        .gamma, graph verifier on\n"
      "                                        .src/.df\n"
      "  distrib <prog.gamma> --init \"...\"     simulated cluster run\n"
      "  serve <prog.gamma> --socket <path>    long-lived daemon: multi-tenant\n"
      "                                        sessions kept at fixpoint by\n"
      "                                        the incremental worklist; line-\n"
      "                                        delimited JSON protocol over a\n"
      "                                        Unix socket (or --stdio)\n"
      "  help                                  print this message (--help, -h)\n"
      "options: --init \"[v,'L'] ...\"  --engine seq|idx|par  --seed N\n"
      "         --workers N            worker threads (par engines)\n"
      "         --deadline S           wall-clock budget in seconds (run,\n"
      "                                rungamma, distrib); prints the\n"
      "                                partial state\n"
      "         --werror               lint/check: warnings also fail (exit 1)\n"
      "         --json                 lint/check/optimize: machine-readable\n"
      "                                output\n"
      "         --affinity             distrib: place elements by conflict-\n"
      "                                class label affinity\n"
      "optimize: --out <file>          write the rewritten program to a file\n"
      "         --report               optimize: full report on stdout (cost,\n"
      "                                bounds, per-rewrite decisions)\n"
      "         --max-steps N          optimize: cap applied fusion steps\n"
      "                                (0 = run to fixpoint)\n"
      "         --no-cost-model        optimize: apply every safe fusion even\n"
      "                                when the cost model votes no\n"
      "         --optimize             run, rungamma, distrib: run the\n"
      "                                optimizer on the program first (not\n"
      "                                with --resume); run (.src/.df) uses\n"
      "                                the dataflow optimizer instead\n"
      "rungamma: --worklist           run through the incremental worklist\n"
      "                                fixpoint (single-stage programs; the\n"
      "                                whole --init multiset arrives as one\n"
      "                                injection — same fixpoint, stats on\n"
      "                                stderr)\n"
      "serve:   --socket <path>        Unix-domain socket to listen on\n"
      "         --stdio                speak the protocol on stdin/stdout\n"
      "                                (also the default without --socket)\n"
      "         --max-sessions N       concurrent session cap (default 64)\n"
      "         --deadline S           serve: default per-inject deadline\n"
      "         --max-steps N          serve: default per-session firing\n"
      "                                budget\n"
      "         --record-out <stem>    serve: write each closed session's\n"
      "                                journal to <stem>.<session>.json\n"
      "distrib: --nodes N --placement hash|rr|single --latency N\n"
      "         --fires-per-round N    local matches per node per round\n"
      "  fault injection (deterministic from --seed):\n"
      "         --loss P --dup P --reorder P   per-message probabilities\n"
      "         --crash-rate P --crash-downtime N   random crash-restarts\n"
      "         --crash R:N:D          crash node N at round R for D rounds\n"
      "         --partition S:D:C      rounds [S,S+D): cut {0..C-1}|{C..}\n"
      "         --token-timeout N      Safra token regeneration timeout\n"
      "  elasticity & durability:\n"
      "         --join R:N             spare node N joins the ring at round R\n"
      "         --leave R:N            node N drains and leaves at round R\n"
      "         --churn-rate P         random leave/rejoin per round (capped)\n"
      "         --replication N        checkpoint holders per node (ring\n"
      "                                successors; default 1)\n"
      "         --wal-dir <dir>        per-node write-ahead logs + manifest\n"
      "                                (durability; enables --resume)\n"
      "         --wal-snapshot-every N rounds between WAL compactions\n"
      "                                (snapshot rewrite; default 64)\n"
      "         --resume               restart the whole cluster from the\n"
      "                                WALs in --wal-dir (no --init needed)\n"
      "viz:     --out <file>           output path (default: <input>.html, or\n"
      "                                stdout for --format dot)\n"
      "         --format html|dot      output kind (default html)\n"
      "         --graph dataflow|interference|classes\n"
      "                                which graph a DOT render shows (also\n"
      "                                honored by `dot` on .gamma input)\n"
      "         --journal <file.json>  embed an existing run journal instead\n"
      "                                of running the input\n"
      "observability (run, rungamma, distrib):\n"
      "  --trace-out <file.json>  Chrome trace-event dump (chrome://tracing)\n"
      "  --metrics                print engine-internal metrics after the run\n"
      "  --record-out <file.json> record the run (per-fire provenance +\n"
      "                           per-round store deltas) to a journal; also\n"
      "                           accepted by viz to keep the journal it\n"
      "                           recorded for the HTML\n"
      "  --log-level <level>      trace|debug|info|warn|error (or GF_LOG_LEVEL)\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads a dataflow graph from source (.src, compiled) or graph text (.df).
dataflow::Graph load_graph(const std::string& path) {
  const std::string text = read_file(path);
  if (ends_with(path, ".df")) return dataflow::parse_text(text);
  if (ends_with(path, ".src")) return frontend::compile_source(text);
  throw Error("expected a .src or .df file, got '" + path + "'");
}

struct Options {
  std::optional<std::string> init;
  std::string engine = "idx";
  std::uint64_t seed = 1;
  std::optional<unsigned> workers;
  std::optional<std::string> trace_out;
  std::optional<std::string> record_out;
  bool metrics = false;
  // --- viz ---
  std::string out;         // --out: output path ("" = default)
  std::string format = "html";
  std::string graph_kind;  // --graph: "" = pick by input kind
  std::optional<std::string> journal_path;
  /// Wall-clock budget in seconds for run/rungamma; <= 0 = none. The run
  /// returns its partial state with outcome=deadline_exceeded when it hits.
  double deadline = 0.0;
  // --- static analysis ---
  bool werror = false;    // lint/check: warnings fail the exit code
  bool json = false;      // lint/check/optimize: machine-readable output
  // --- optimizer ---
  bool optimize = false;      // run/rungamma/distrib: optimize first
  bool opt_report = false;    // optimize: full report on stdout
  bool cost_model = true;     // optimize: gate rewrites on the cost model
  std::size_t max_steps = 0;  // optimize: fusion step cap (0 = fixpoint)
  bool affinity = false;  // distrib: label-affinity placement hint
  // --- distrib ---
  std::size_t nodes = 4;
  std::string placement = "hash";
  std::size_t latency = 1;
  std::size_t fires_per_round = 4;
  FaultPlan faults;
  std::size_t replication = 1;
  std::string wal_dir;
  std::size_t wal_snapshot_every = 64;
  bool resume = false;
  // --- serve / worklist ---
  std::string socket;             // serve: unix socket path
  bool stdio = false;             // serve: speak the protocol on stdin/stdout
  std::size_t max_sessions = 64;  // serve: concurrent session cap
  bool worklist = false;          // rungamma: incremental worklist path
};

/// Parses "a:b" / "a:b:c" small-integer tuples (--crash, --partition).
std::vector<std::size_t> parse_tuple(const std::string& text,
                                     const std::string& arg,
                                     std::size_t want) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t colon = text.find(':', pos);
    const std::string part = text.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos);
    try {
      std::size_t used = 0;
      out.push_back(std::stoull(part, &used));
      if (used != part.size()) throw Error("");
    } catch (const std::exception&) {
      throw Error("expected N:N:N for " + arg + ", got '" + text + "'");
    }
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (out.size() != want) {
    throw Error(arg + " wants " + std::to_string(want) +
                " colon-separated numbers, got '" + text + "'");
  }
  return out;
}

Options parse_options(int argc, char** argv, int first) {
  Options opts;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    auto next_number = [&]() -> unsigned long long {
      const std::string value = next();
      try {
        std::size_t pos = 0;
        const unsigned long long n = std::stoull(value, &pos);
        if (pos != value.size()) throw Error("");
        return n;
      } catch (const std::exception&) {
        throw Error("expected a number for " + arg + ", got '" + value + "'");
      }
    };
    auto next_real = [&]() -> double {
      const std::string value = next();
      try {
        std::size_t pos = 0;
        const double x = std::stod(value, &pos);
        if (pos != value.size()) throw Error("");
        return x;
      } catch (const std::exception&) {
        throw Error("expected a number for " + arg + ", got '" + value + "'");
      }
    };
    if (arg == "--init") {
      opts.init = next();
    } else if (arg == "--engine") {
      opts.engine = next();
    } else if (arg == "--seed") {
      opts.seed = next_number();
    } else if (arg == "--workers") {
      opts.workers = static_cast<unsigned>(next_number());
    } else if (arg == "--trace-out") {
      opts.trace_out = next();
    } else if (arg == "--record-out") {
      opts.record_out = next();
    } else if (arg == "--out") {
      opts.out = next();
    } else if (arg == "--format") {
      opts.format = next();
    } else if (arg == "--graph") {
      opts.graph_kind = next();
    } else if (arg == "--journal") {
      opts.journal_path = next();
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--deadline") {
      opts.deadline = next_real();
    } else if (arg == "--werror") {
      opts.werror = true;
    } else if (arg == "--optimize") {
      opts.optimize = true;
    } else if (arg == "--report") {
      opts.opt_report = true;
    } else if (arg == "--no-cost-model") {
      opts.cost_model = false;
    } else if (arg == "--max-steps") {
      opts.max_steps = next_number();
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--affinity") {
      opts.affinity = true;
    } else if (arg == "--nodes") {
      opts.nodes = next_number();
    } else if (arg == "--placement") {
      opts.placement = next();
    } else if (arg == "--latency") {
      opts.latency = next_number();
    } else if (arg == "--fires-per-round") {
      opts.fires_per_round = next_number();
    } else if (arg == "--loss") {
      opts.faults.loss = next_real();
    } else if (arg == "--dup") {
      opts.faults.duplication = next_real();
    } else if (arg == "--reorder") {
      opts.faults.reorder = next_real();
    } else if (arg == "--crash-rate") {
      opts.faults.crash_rate = next_real();
    } else if (arg == "--crash-downtime") {
      opts.faults.crash_downtime = next_number();
    } else if (arg == "--crash") {
      const auto t = parse_tuple(next(), arg, 3);
      opts.faults.crashes.push_back({t[0], t[1], t[2]});
    } else if (arg == "--partition") {
      const auto t = parse_tuple(next(), arg, 3);
      opts.faults.partitions.push_back({t[0], t[1], t[2]});
    } else if (arg == "--token-timeout") {
      opts.faults.token_timeout = next_number();
    } else if (arg == "--join") {
      const auto t = parse_tuple(next(), arg, 2);
      opts.faults.membership.joins.push_back({t[0], t[1]});
    } else if (arg == "--leave") {
      const auto t = parse_tuple(next(), arg, 2);
      opts.faults.membership.leaves.push_back({t[0], t[1]});
    } else if (arg == "--churn-rate") {
      opts.faults.membership.churn_rate = next_real();
    } else if (arg == "--replication") {
      opts.replication = next_number();
    } else if (arg == "--wal-dir") {
      opts.wal_dir = next();
    } else if (arg == "--wal-snapshot-every") {
      opts.wal_snapshot_every = next_number();
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--socket") {
      opts.socket = next();
    } else if (arg == "--stdio") {
      opts.stdio = true;
    } else if (arg == "--max-sessions") {
      opts.max_sessions = next_number();
    } else if (arg == "--worklist") {
      opts.worklist = true;
    } else if (arg == "--log-level") {
      const std::string name = next();
      const auto level = parse_log_level(name.c_str());
      if (!level) throw Error("unknown log level '" + name + "'");
      set_log_level(*level);
    } else {
      throw Error("unknown option '" + arg + "'");
    }
  }
  return opts;
}

/// Writes the collected trace to `path` and reports where it went (stderr,
/// so stdout stays the program's own output).
void dump_trace(const obs::Telemetry& tel, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write trace to '" + path + "'");
  obs::write_chrome_trace(out, tel);
  std::cerr << "# trace written to " << path
            << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
}

/// Writes a run journal to `path` (stderr note, like dump_trace).
void dump_journal(const obs::Journal& journal, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write journal to '" + path + "'");
  obs::write_journal(out, journal);
  std::cerr << "# journal written to " << path << " ("
            << journal.fires.size() << " fires, " << journal.rounds.size()
            << " rounds)\n";
}

std::unique_ptr<gamma::Engine> make_engine(const std::string& name) {
  if (name == "seq") return std::make_unique<gamma::SequentialEngine>();
  if (name == "idx") return std::make_unique<gamma::IndexedEngine>();
  if (name == "par") return std::make_unique<gamma::ParallelEngine>();
  throw Error("unknown engine '" + name + "' (want seq|idx|par)");
}

int cmd_compile(const std::string& path) {
  dataflow::write_text(std::cout, load_graph(path));
  return 0;
}

analysis::OptimizeOptions make_optimize_options(const Options& opts,
                                                obs::Telemetry* tel) {
  analysis::OptimizeOptions oopts;
  oopts.seed = opts.seed;
  oopts.max_steps = opts.max_steps;
  oopts.use_cost_model = opts.cost_model;
  if (opts.workers) oopts.cost.workers = *opts.workers;
  oopts.telemetry = tel;
  return oopts;
}

/// `--optimize` pre-pass for rungamma/distrib: rewrites the program, leaves
/// a one-line summary on stderr so stdout stays the run's own output.
gamma::Program optimize_for_run(const gamma::Program& program,
                                const gamma::Multiset& initial,
                                const Options& opts, obs::Telemetry* tel) {
  const auto r = analysis::optimize_program(program, initial,
                                            make_optimize_options(opts, tel));
  std::cerr << "# optimize: " << r.report.fused << " fused, "
            << r.report.dead_removed << " dead removed, cost "
            << r.report.cost_before << " -> " << r.report.cost_after << '\n';
  if (!r.report.class_check_ok) {
    throw Error("optimizer invariant violated: conflict classes coarsened");
  }
  return r.program;
}

int cmd_run(const std::string& path, const Options& opts) {
  dataflow::Graph g = load_graph(path);
  if (opts.optimize) {
    const auto r = dataflow::optimize(std::move(g));
    std::cerr << "# optimize: folded " << r.folded << ", bypassed "
              << r.bypassed << ", removed " << r.removed << '\n';
    g = r.graph;
  }
  obs::Telemetry tel;
  obs::RunRecorder rec;
  dataflow::DfRunOptions ropts;
  if (opts.trace_out || opts.metrics) ropts.telemetry = &tel;
  if (opts.record_out) ropts.record = &rec;
  if (opts.workers) ropts.workers = *opts.workers;
  if (opts.deadline > 0.0) {
    ropts.deadline = opts.deadline;
    ropts.limit_policy = LimitPolicy::Partial;
  }
  const bool parallel = opts.engine == "par";
  const auto result = parallel
                          ? dataflow::ParallelEngine().run(g, ropts)
                          : dataflow::Interpreter().run(g, ropts);
  if (result.outcome != Outcome::Completed) {
    std::cout << "# stopped early: " << to_string(result.outcome)
              << " (partial outputs below)\n";
  }
  for (const auto& [name, tokens] : result.outputs) {
    std::cout << name << " =";
    for (const Value& v : result.output_values(name)) std::cout << ' ' << v;
    std::cout << '\n';
  }
  std::cout << "# " << result.fires << " firings";
  if (!parallel) std::cout << ", " << result.wavefronts.size() << " wavefronts";
  std::cout << '\n';
  if (!result.leftovers.empty()) {
    std::cout << "# " << result.leftovers.size() << " unmatched operand(s)\n";
  }
  if (opts.trace_out) dump_trace(tel, *opts.trace_out);
  if (opts.record_out) dump_journal(rec.take(), *opts.record_out);
  if (opts.metrics) obs::write_report(std::cout, tel);
  return 0;
}

int cmd_togamma(const std::string& path) {
  const auto conv = translate::dataflow_to_gamma(load_graph(path));
  std::cout << conv.program << "\n\n# initial multiset\n# M = "
            << conv.initial << '\n';
  for (const auto& [output, labels] : conv.output_labels) {
    std::cout << "# output '" << output << "' <- elements labeled";
    for (const std::string& label : labels) std::cout << " '" << label << "'";
    std::cout << '\n';
  }
  // Translation validation: Algorithm 1's output must lint clean of errors.
  const auto report = analysis::lint_program(conv.program, conv.initial);
  if (report.errors() > 0) {
    std::cerr << "# translation validation FAILED (" << report.errors()
              << " error(s)):\n" << report;
    return 1;
  }
  return 0;
}

/// `rungamma --worklist`: the batch A/B face of the incremental fixpoint.
/// The whole initial multiset arrives as ONE injection, read flat from the
/// `--init` text as a serve inject reads its elements, so for confluent
/// programs the printed fixpoint is byte-identical to the batch engines' —
/// the equivalence obligation DESIGN §14 states and test_serve checks.
int run_worklist(const gamma::Program& program, const Options& opts) {
  gamma::FlatElements initial;
  gamma::dsl::read_elements(*opts.init, initial);
  runtime::WorklistOptions wopts;
  wopts.seed = opts.seed;
  obs::RunRecorder rec;
  if (opts.record_out) wopts.record = &rec;
  if (opts.deadline > 0.0) {
    wopts.deadline = opts.deadline;
    wopts.limit_policy = LimitPolicy::Partial;
  }
  runtime::IncrementalFixpoint fix(program, gamma::program_footprints(program),
                                   wopts);
  const Outcome outcome = fix.inject(initial);
  std::cout << fix.snapshot() << '\n'
            << "# " << fix.stats().fires << " reactions fired\n";
  if (outcome != Outcome::Completed) {
    std::cout << "# stopped early: " << to_string(outcome)
              << " (partial multiset above)\n";
  }
  const runtime::WorklistStats& stats = fix.stats();
  std::cerr << "# worklist: " << stats.wakeups << " wakeup(s), "
            << stats.rematches << " rematch probe(s)\n";
  if (opts.record_out) {
    fix.finish_recording();
    dump_journal(rec.take(), *opts.record_out);
  }
  return 0;
}

int cmd_rungamma(const std::string& path, const Options& opts) {
  if (!opts.init) throw Error("rungamma needs --init \"<elements>\"");
  gamma::Program program = gamma::dsl::parse_program(read_file(path));
  if (opts.worklist) return run_worklist(program, opts);
  const gamma::Multiset initial = gamma::dsl::parse_elements(*opts.init);
  obs::Telemetry tel;
  obs::RunRecorder rec;
  if (opts.optimize) {
    program = optimize_for_run(
        program, initial, opts,
        opts.trace_out || opts.metrics ? &tel : nullptr);
  }
  gamma::RunOptions ropts;
  ropts.seed = opts.seed;
  if (opts.workers) ropts.workers = *opts.workers;
  if (opts.trace_out || opts.metrics) ropts.telemetry = &tel;
  if (opts.record_out) ropts.record = &rec;
  if (opts.deadline > 0.0) {
    ropts.deadline = opts.deadline;
    ropts.limit_policy = LimitPolicy::Partial;
  }
  const auto result = make_engine(opts.engine)->run(program, initial, ropts);
  std::cout << result.final_multiset << '\n'
            << "# " << result.steps << " reactions fired\n";
  if (result.outcome != Outcome::Completed) {
    std::cout << "# stopped early: " << to_string(result.outcome)
              << " (partial multiset above)\n";
  }
  if (opts.trace_out) dump_trace(tel, *opts.trace_out);
  if (opts.record_out) dump_journal(rec.take(), *opts.record_out);
  if (opts.metrics) obs::write_report(std::cout, tel);
  return 0;
}

int cmd_distrib(const std::string& path, const Options& opts) {
  if (!opts.init && !opts.resume) {
    throw Error("distrib needs --init \"<elements>\" (or --resume)");
  }
  gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const gamma::Multiset initial =
      opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
  obs::Telemetry tel;
  obs::RunRecorder rec;
  if (opts.optimize) {
    // A resumed cluster replays WALs written against the original program's
    // reaction names; rewriting here would orphan them.
    if (opts.resume) throw Error("--optimize cannot be combined with --resume");
    program = optimize_for_run(
        program, initial, opts,
        opts.trace_out || opts.metrics ? &tel : nullptr);
  }
  distrib::ClusterOptions copts;
  copts.nodes = opts.nodes;
  copts.seed = opts.seed;
  copts.latency = opts.latency;
  copts.fires_per_round = opts.fires_per_round;
  copts.faults = opts.faults;
  copts.replication_factor = opts.replication;
  copts.wal_dir = opts.wal_dir;
  copts.wal_snapshot_every = opts.wal_snapshot_every;
  copts.resume = opts.resume;
  if (opts.trace_out || opts.metrics) copts.telemetry = &tel;
  if (opts.record_out) copts.record = &rec;
  if (opts.deadline > 0.0) {
    copts.deadline = opts.deadline;
    copts.limit_policy = LimitPolicy::Partial;
  }
  if (opts.placement == "hash") {
    copts.placement = distrib::Placement::Hash;
  } else if (opts.placement == "rr") {
    copts.placement = distrib::Placement::RoundRobin;
  } else if (opts.placement == "single") {
    copts.placement = distrib::Placement::Single;
  } else {
    throw Error("unknown placement '" + opts.placement +
                "' (want hash|rr|single)");
  }
  if (opts.affinity) {
    // The label map comes from the footprints alone: no commutation probe.
    analysis::InterferenceOptions iopts;
    iopts.probe_states = 0;
    const auto report = analysis::analyze_interference(program, initial, iopts);
    copts.label_affinity = report.label_affinity();
    std::cerr << "# affinity placement: " << copts.label_affinity.size()
              << " label(s) over " << report.class_count << " class(es)\n";
  }

  const auto result = distrib::run_distributed(program, initial, copts);
  std::cout << result.final_multiset << '\n'
            << "# " << result.fires << " reactions fired across "
            << copts.nodes << " node(s) in " << result.rounds << " rounds\n"
            << "# " << result.messages << " messages, " << result.migrations
            << " element migrations, " << result.token_laps
            << " Safra laps\n";
  if (copts.faults.any()) {
    std::cout << "# faults: " << result.messages_lost << " lost, "
              << result.messages_duplicated << " duplicated, "
              << result.messages_delayed << " delayed, " << result.crashes
              << " crash(es)\n"
              << "# recovery: " << result.retransmissions
              << " retransmissions, " << result.duplicates_suppressed
              << " duplicates suppressed, " << result.recoveries
              << " restarts, " << result.token_regenerations
              << " token regenerations\n";
  }
  if (copts.faults.membership.any() || result.epochs > 0) {
    std::cout << "# elasticity: " << result.epochs << " epoch change(s), "
              << result.joins << " join(s), " << result.leaves
              << " leave(s), " << result.rebalances << " rebalance(s), "
              << result.labels_moved << " label(s) moved\n";
  }
  if (!copts.wal_dir.empty()) {
    std::cout << "# wal: " << result.wal_bytes << " bytes, "
              << result.wal_records << " records, " << result.wal_compactions
              << " compaction(s), " << result.wal_replays << " replay(s)\n";
  }
  if (opts.trace_out) dump_trace(tel, *opts.trace_out);
  if (opts.record_out) dump_journal(rec.take(), *opts.record_out);
  if (opts.metrics) obs::write_report(std::cout, tel);
  return 0;
}

/// `gammaflow serve`: the long-lived daemon. The .gamma file is the default
/// program new sessions host (a create request may override it). Socket
/// mode accepts clients on a Unix socket; --stdio speaks the same protocol
/// on stdin/stdout (one JSON object per line each way, DESIGN §14).
int cmd_serve(const std::string& path, const Options& opts) {
  serve::ServeOptions sopts;
  sopts.socket_path = opts.socket;
  sopts.max_sessions = opts.max_sessions;
  sopts.deadline = opts.deadline;
  if (opts.max_steps > 0) sopts.max_steps = opts.max_steps;
  sopts.seed = opts.seed;
  if (opts.record_out) sopts.record_out = *opts.record_out;
  sopts.default_program = read_file(path);
  // Validate the default program up front: a daemon that rejects every
  // create with bad_program is better caught at startup.
  const gamma::Program program = gamma::dsl::parse_program(sopts.default_program);
  if (program.stage_count() > 1) {
    throw Error("serve hosts single-stage programs; '" + path + "' has " +
                std::to_string(program.stage_count()) + " stages");
  }
  serve::Server server(std::move(sopts));
  if (opts.stdio || opts.socket.empty()) {
    if (!opts.stdio) {
      std::cerr << "# no --socket given; speaking the protocol on stdio\n";
    }
    server.serve_stream(std::cin, std::cout);
    return 0;
  }
  std::cerr << "# serving '" << path << "' on " << opts.socket << '\n';
  return server.serve_socket();
}

int cmd_optimize(const std::string& path, const Options& opts) {
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const gamma::Multiset initial =
      opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
  const auto r = analysis::optimize_program(
      program, initial, make_optimize_options(opts, nullptr));

  if (!opts.out.empty()) {
    std::ofstream file(opts.out);
    if (!file) throw Error("cannot write '" + opts.out + "'");
    file << r.program << '\n';
    std::cerr << "# optimized program written to " << opts.out << '\n';
  }
  if (opts.json) {
    analysis::write_json(std::cout, r.report);
    std::cout << '\n';
  } else if (opts.opt_report) {
    std::cout << r.report;
    if (opts.out.empty()) std::cout << "\n" << r.program << '\n';
  } else {
    // Program on stdout, summary on stderr (pipeline-friendly, like fuse).
    if (opts.out.empty()) std::cout << r.program << '\n';
    std::cerr << "# optimize: " << r.report.fused << " fused ("
              << r.report.chains_found << " chain(s) found), "
              << r.report.rejected_by_cost << " rejected by cost, "
              << r.report.dead_removed << " dead removed, cost "
              << r.report.cost_before << " -> " << r.report.cost_after << '\n';
  }
  return r.report.class_check_ok ? 0 : 1;
}

int cmd_fuse(const std::string& path, const Options& opts) {
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const gamma::Multiset initial =
      opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
  std::cout << analysis::optimize_program(program, initial,
                                         analysis::reduction_options())
                   .program
            << '\n';
  return 0;
}

int cmd_expand(const std::string& path) {
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  std::vector<translate::ExpandSkip> skips;
  std::cout << translate::expand_program(program, &skips) << '\n';
  for (const auto& s : skips) {
    std::cerr << "# warning: '" << s.reaction << "' kept as-is: " << s.reason
              << '\n';
  }
  return 0;
}

int cmd_reconstruct(const std::string& path, const Options& opts) {
  if (!opts.init) throw Error("reconstruct needs --init \"<elements>\"");
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const dataflow::Graph g = translate::reconstruct_graph(
      program, gamma::dsl::parse_elements(*opts.init));
  dataflow::write_text(std::cout, g);
  // Translation validation: Algorithm 2's output must verify clean of
  // errors (structure, tag discipline, token balance).
  const auto report = analysis::verify_graph(g);
  if (report.errors() > 0) {
    std::cerr << "# translation validation FAILED (" << report.errors()
              << " error(s)):\n" << report;
    return 1;
  }
  return 0;
}

int cmd_opt(const std::string& path) {
  const auto r = dataflow::optimize(load_graph(path));
  dataflow::write_text(std::cout, r.graph);
  std::cerr << "# folded " << r.folded << ", bypassed " << r.bypassed
            << ", removed " << r.removed << '\n';
  return 0;
}

/// Shared lint/verify exit policy: errors always fail; --werror promotes
/// warnings.
int report_exit(const analysis::LintReport& report, bool werror) {
  if (report.errors() > 0) return 1;
  if (werror && report.warnings() > 0) return 1;
  return 0;
}

int cmd_lint(const std::string& path, const Options& opts) {
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const gamma::Multiset initial =
      opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
  const auto report = analysis::lint_program(program, initial);
  if (opts.json) {
    analysis::write_json(std::cout, report);
    std::cout << '\n';
  } else {
    std::cout << report;
    if (report.clean()) std::cout << "clean: no findings\n";
  }
  return report_exit(report, opts.werror);
}

int cmd_check(const std::string& path, const Options& opts) {
  if (ends_with(path, ".src") || ends_with(path, ".df")) {
    const auto report = analysis::verify_graph(load_graph(path));
    if (opts.json) {
      std::cout << "{\"verify\":";
      analysis::write_json(std::cout, report);
      std::cout << "}\n";
    } else {
      std::cout << report;
      if (report.clean()) std::cout << "clean: no findings\n";
    }
    return report_exit(report, opts.werror);
  }
  // Gamma side: lint + interference/confluence.
  const gamma::Program program = gamma::dsl::parse_program(read_file(path));
  const gamma::Multiset initial =
      opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
  auto lint = analysis::lint_program(program, initial);
  // Optimizer-side lints: boundedness (divergence risk) and dead reactions
  // the label-flow pass cannot see (unsatisfiable conditions, zero-bound
  // labels). Same report, so --werror and --json pick them up unchanged.
  const auto opt_lints = analysis::optimizer_lints(program, initial);
  lint.findings.insert(lint.findings.end(), opt_lints.findings.begin(),
                       opt_lints.findings.end());
  analysis::InterferenceOptions iopts;
  iopts.seed = opts.seed;
  const auto interference =
      analysis::analyze_interference(program, initial, iopts);
  if (opts.json) {
    std::cout << "{\"lint\":";
    analysis::write_json(std::cout, lint);
    std::cout << ",\"interference\":";
    analysis::write_json(std::cout, interference);
    std::cout << "}\n";
  } else {
    std::cout << lint;
    if (lint.clean()) std::cout << "lint clean: no findings\n";
    std::cout << interference;
  }
  if (interference.has_divergence()) return 1;
  return report_exit(lint, opts.werror);
}

/// Renders one Gamma-side DOT graph (`dot` on .gamma, `viz --format dot`).
void write_gamma_dot(std::ostream& os, const std::string& kind,
                     const gamma::Program& program,
                     const analysis::InterferenceReport& report,
                     const std::string& title) {
  if (kind == "interference") {
    viz::write_interference_dot(os, program, report, title);
  } else if (kind == "classes") {
    viz::write_classes_dot(os, program, report, title);
  } else {
    throw Error("unknown --graph '" + kind +
                "' for a .gamma input (want interference|classes)");
  }
}

int cmd_dot(const std::string& path, const Options& opts) {
  if (ends_with(path, ".gamma")) {
    const gamma::Program program = gamma::dsl::parse_program(read_file(path));
    const gamma::Multiset initial =
        opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
    analysis::InterferenceOptions iopts;
    iopts.seed = opts.seed;
    const auto report = analysis::analyze_interference(program, initial, iopts);
    const std::string kind =
        opts.graph_kind.empty() ? "interference" : opts.graph_kind;
    write_gamma_dot(std::cout, kind, program, report, path);
    return 0;
  }
  viz::write_dot(std::cout, load_graph(path), path);
  return 0;
}

/// `gammaflow viz`: renders the input (plus an optional or freshly recorded
/// run journal) as one self-contained HTML file, or as DOT via --format dot.
int cmd_viz(const std::string& path, const Options& opts) {
  const bool is_gamma = ends_with(path, ".gamma");
  std::optional<dataflow::Graph> graph;
  std::optional<gamma::Program> program;
  std::optional<analysis::InterferenceReport> report;
  if (is_gamma) {
    program = gamma::dsl::parse_program(read_file(path));
    const gamma::Multiset initial =
        opts.init ? gamma::dsl::parse_elements(*opts.init) : gamma::Multiset{};
    analysis::InterferenceOptions iopts;
    iopts.seed = opts.seed;
    report = analysis::analyze_interference(*program, initial, iopts);
  } else {
    graph = load_graph(path);
  }

  if (opts.format == "dot") {
    const std::string kind = opts.graph_kind.empty()
                                 ? (is_gamma ? "interference" : "dataflow")
                                 : opts.graph_kind;
    std::ofstream file;
    if (!opts.out.empty()) {
      file.open(opts.out);
      if (!file) throw Error("cannot write '" + opts.out + "'");
    }
    std::ostream& os = opts.out.empty() ? std::cout : file;
    if (kind == "dataflow") {
      if (!graph) throw Error("--graph dataflow needs a .src or .df input");
      viz::write_dot(os, *graph, path);
    } else {
      if (!program) {
        throw Error("--graph " + kind + " needs a .gamma input");
      }
      write_gamma_dot(os, kind, *program, *report, path);
    }
    return 0;
  }
  if (opts.format != "html") {
    throw Error("unknown --format '" + opts.format + "' (want html|dot)");
  }

  // Journal: load one, or run the input with recording on. A .gamma run
  // needs --init; without it the fixpoint is immediate and the journal is
  // omitted rather than misleading.
  obs::Journal journal;
  bool have_journal = false;
  if (opts.journal_path) {
    std::ifstream in(*opts.journal_path);
    if (!in) throw Error("cannot open journal '" + *opts.journal_path + "'");
    journal = obs::parse_journal(in);
    have_journal = true;
  } else if (is_gamma && opts.init) {
    obs::RunRecorder rec;
    gamma::RunOptions ropts;
    ropts.seed = opts.seed;
    ropts.record = &rec;
    (void)make_engine(opts.engine)->run(
        *program, gamma::dsl::parse_elements(*opts.init), ropts);
    journal = rec.take();
    have_journal = true;
  } else if (!is_gamma) {
    obs::RunRecorder rec;
    dataflow::DfRunOptions ropts;
    ropts.record = &rec;
    if (opts.engine == "par") {
      (void)dataflow::ParallelEngine().run(*graph, ropts);
    } else {
      (void)dataflow::Interpreter().run(*graph, ropts);
    }
    journal = rec.take();
    have_journal = true;
  }
  if (have_journal && opts.record_out) dump_journal(journal, *opts.record_out);

  viz::HtmlInputs inputs;
  inputs.title = path;
  inputs.graph = graph ? &*graph : nullptr;
  inputs.program = program ? &*program : nullptr;
  inputs.interference = report ? &*report : nullptr;
  inputs.journal = have_journal ? &journal : nullptr;

  std::string out_path = opts.out;
  if (out_path.empty()) {
    const std::size_t dot_pos = path.find_last_of('.');
    const std::size_t slash = path.find_last_of('/');
    out_path = (dot_pos != std::string::npos &&
                (slash == std::string::npos || dot_pos > slash))
                   ? path.substr(0, dot_pos) + ".html"
                   : path + ".html";
  }
  std::ofstream out(out_path);
  if (!out) throw Error("cannot write '" + out_path + "'");
  viz::write_html(out, inputs);
  std::cerr << "# html written to " << out_path
            << (have_journal ? "" : " (no journal embedded)") << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "help" || first == "--help" || first == "-h") {
      print_usage(std::cout);
      return 0;
    }
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string file = argv[2];
  const Options opts = parse_options(argc, argv, 3);

  if (cmd == "compile") return cmd_compile(file);
  if (cmd == "run") return cmd_run(file, opts);
  if (cmd == "togamma") return cmd_togamma(file);
  if (cmd == "rungamma") return cmd_rungamma(file, opts);
  if (cmd == "fuse") return cmd_fuse(file, opts);
  if (cmd == "expand") return cmd_expand(file);
  if (cmd == "optimize") return cmd_optimize(file, opts);
  if (cmd == "reconstruct") return cmd_reconstruct(file, opts);
  if (cmd == "dot") return cmd_dot(file, opts);
  if (cmd == "viz") return cmd_viz(file, opts);
  if (cmd == "opt") return cmd_opt(file);
  if (cmd == "lint") return cmd_lint(file, opts);
  if (cmd == "check") return cmd_check(file, opts);
  if (cmd == "distrib") return cmd_distrib(file, opts);
  if (cmd == "serve") return cmd_serve(file, opts);
  return usage();
} catch (const std::exception& e) {
  std::cerr << "gammaflow: " << e.what() << '\n';
  return 1;
}
