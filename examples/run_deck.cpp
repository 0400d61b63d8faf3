// run_deck: the production entry point — run any problem from a text
// parameter deck (see src/core/parameter_file.hpp for the key list and the
// decks/ directory for checked-in examples).
//
//   $ ./run_deck ../decks/first_star.enzo
//   $ ./run_deck ../decks/sod.enzo
//
//   $ ./run_deck --help
//
// Exit codes: 0 success; 1 a deck, restart or output file could not be
// used (the message says which); 2 a command-line mistake (unknown option,
// bad --threads/--executor value) or AMR invariant violations under
// --audit.
//
// Telemetry flags (may appear anywhere on the command line):
//   --trace-out=FILE   write a Chrome trace_event JSON timeline of the run
//                      (load in chrome://tracing or Perfetto)
//   --diag-out=FILE    append one JSONL diagnostics record per root step
//                      (z, dt + limiter, grids/cells per level, conservation
//                      residuals, peak bytes, flops)
//   --audit            run the AMR invariant auditor after every root step
//                      (same as deck key AuditInvariants = 1); any violation
//                      makes the run exit non-zero
//
// Execution flags (override the deck's Threads/Executor keys):
//   --threads N        run level sweeps on N lanes (1 = serial backend,
//                      0 = all hardware threads); also --threads=N
//   --executor=NAME    force the backend: serial or threadpool
//
// Checkpoint / restart:
//   --restart          resume from the newest intact snapshot in the deck's
//                      CheckpointPath directory (corrupted or torn snapshots
//                      are skipped automatically)
//   --restart=PATH     resume from PATH (a snapshot file or a directory)
//   With CheckpointInterval = N in the deck, a snapshot is written to
//   CheckpointPath every N root steps (rolling retention CheckpointKeep,
//   default 3).  Without it, one snapshot is written at end of run.

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "core/parameter_file.hpp"
#include "exec/exec_config.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "perf/diagnostics.hpp"
#include "perf/trace.hpp"
#include "util/timer.hpp"

using namespace enzo;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--trace-out=FILE] [--diag-out=FILE] [--audit] "
               "[--restart[=PATH]] "
               "[--threads N] [--executor=serial|threadpool] "
               "<parameter-deck> [more decks...]\n",
               argv0);
}

/// A thread count is a plain non-negative decimal integer (0 = all cores).
bool parse_threads(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < 0 || v > INT_MAX)
    return false;
  *out = static_cast<int>(v);
  return true;
}

/// Command-line mistakes exit 2 with a one-line message.
int usage_error(const std::string& msg) {
  std::fprintf(stderr, "run_deck: %s (see --help)\n", msg.c_str());
  return 2;
}

int run(int argc, char** argv) {
  std::string trace_out, diag_out;
  bool audit = false;
  bool restart = false;
  std::string restart_path;  // empty: use the deck's CheckpointPath
  int threads_override = -1;  // -1: keep the deck's value
  std::string executor_override;
  std::vector<const char*> decks;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--help") == 0 || std::strcmp(argv[a], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    const char* threads_arg = nullptr;
    if (std::strncmp(argv[a], "--trace-out=", 12) == 0)
      trace_out = argv[a] + 12;
    else if (std::strncmp(argv[a], "--diag-out=", 11) == 0)
      diag_out = argv[a] + 11;
    else if (std::strcmp(argv[a], "--audit") == 0)
      audit = true;
    else if (std::strcmp(argv[a], "--restart") == 0)
      restart = true;
    else if (std::strncmp(argv[a], "--restart=", 10) == 0) {
      restart = true;
      restart_path = argv[a] + 10;
    }
    else if (std::strncmp(argv[a], "--threads=", 10) == 0)
      threads_arg = argv[a] + 10;
    else if (std::strcmp(argv[a], "--threads") == 0) {
      if (a + 1 == argc) return usage_error("--threads needs a value");
      threads_arg = argv[++a];
    }
    else if (std::strncmp(argv[a], "--executor=", 11) == 0)
      executor_override = argv[a] + 11;
    else if (argv[a][0] == '-')
      return usage_error(std::string("unknown option '") + argv[a] + "'");
    else
      decks.push_back(argv[a]);
    if (threads_arg != nullptr && !parse_threads(threads_arg, &threads_override))
      return usage_error(std::string("--threads expects a non-negative "
                                     "integer, got '") +
                         threads_arg + "'");
  }
  if (!executor_override.empty()) {
    try {
      exec::backend_from_string(executor_override);
    } catch (const Error& e) {
      return usage_error(e.what());
    }
  }
  if (decks.empty()) {
    print_usage(stderr, argv[0]);
    return 1;
  }

  perf::TraceRecorder& recorder = perf::TraceRecorder::global();
  if (!trace_out.empty()) recorder.enable_events(true);
  std::unique_ptr<perf::DiagnosticsSink> sink;
  if (!diag_out.empty()) {
    sink = std::make_unique<perf::DiagnosticsSink>(diag_out);
    if (!sink->ok()) {
      std::fprintf(stderr, "cannot open --diag-out file: %s\n",
                   diag_out.c_str());
      return 1;
    }
  }

  std::uint64_t audit_violations = 0;
  for (const char* deck_path : decks) {
    std::printf("==== deck: %s ====\n", deck_path);
    core::ParameterDeck deck = core::parse_parameter_file(deck_path);
    if (audit) deck.config.audit_invariants = true;
    if (threads_override >= 0) {
      deck.config.exec.threads = threads_override;
      if (executor_override.empty())
        deck.config.exec.backend = threads_override == 1
                                       ? exec::Backend::kSerial
                                       : exec::Backend::kThreadPool;
    }
    if (!executor_override.empty())
      deck.config.exec.backend = exec::backend_from_string(executor_override);
    std::printf("effective parameters:\n%s\n",
                core::render_deck(deck).c_str());
    core::Simulation sim(deck.config);
    // The sink must be attached before a restore: attaching resets the
    // conservation baselines that read_checkpoint then reinstates.
    if (sink) sim.set_diagnostics_sink(sink.get());
    if (restart) {
      const std::string from =
          !restart_path.empty() ? restart_path : deck.checkpoint_path;
      if (from.empty()) {
        std::fprintf(stderr,
                     "--restart needs a path: pass --restart=PATH or set "
                     "CheckpointPath in the deck\n");
        return 1;
      }
      core::configure_from_deck(sim, deck);
      const io::RestoreResult res = io::restore_latest_checkpoint(sim, from);
      std::printf("restarted from %s (step %ld, t = %.6g%s)\n",
                  res.path.c_str(), sim.root_steps_taken(), sim.time_d(),
                  res.skipped > 0
                      ? (", " + std::to_string(res.skipped) +
                         " corrupt snapshot(s) skipped")
                            .c_str()
                      : "");
    } else {
      core::setup_from_deck(sim, deck);
    }
    std::printf("initialized: %d levels, %zu grids, %lld cells\n",
                sim.hierarchy().deepest_level() + 1,
                sim.hierarchy().total_grids(),
                static_cast<long long>(sim.hierarchy().total_cells()));

    // Periodic auto-checkpointing: encode on the solver thread (per-grid
    // sections in parallel through the level executor), write + prune in the
    // background.  Declared after sim so it joins its worker first.
    std::unique_ptr<io::CheckpointWriter> ckpt_writer;
    if (deck.checkpoint_interval > 0 && !deck.checkpoint_path.empty()) {
      io::CheckpointWriter::Options copts;
      copts.dir = deck.checkpoint_path;
      copts.keep = deck.checkpoint_keep;
      copts.executor = &sim.executor();
      ckpt_writer = std::make_unique<io::CheckpointWriter>(copts);
      const int interval = deck.checkpoint_interval;
      sim.set_post_step_hook([&ckpt_writer, interval](core::Simulation& s) {
        if (s.root_steps_taken() % interval == 0)
          ckpt_writer->checkpoint(s);
      });
    }

    util::Stopwatch wall;
    for (long s = sim.root_steps_taken(); s < deck.stop_steps; ++s) {
      if (deck.stop_time > 0 && sim.time_d() >= deck.stop_time) break;
      if (deck.stop_time > 0)
        sim.evolve_until(deck.stop_time, 1);
      else
        sim.advance_root_step();
      const auto st = analysis::hierarchy_stats(sim.hierarchy());
      std::printf("step %3ld  t = %-10.4g levels %d  grids %-5zu cells %lld\n",
                  s, sim.time_d(), st.max_level + 1, st.total_grids,
                  static_cast<long long>(st.total_cells));
    }
    if (ckpt_writer) {
      sim.set_post_step_hook(nullptr);
      ckpt_writer->wait();
      if (!ckpt_writer->ok()) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     ckpt_writer->last_error().c_str());
        return 1;
      }
      std::printf("checkpoints: %llu written to %s (newest %ld kept)\n",
                  static_cast<unsigned long long>(
                      ckpt_writer->writes_completed()),
                  deck.checkpoint_path.c_str(),
                  static_cast<long>(deck.checkpoint_keep));
    }
    std::printf("done in %.1f s wall\n", wall.seconds());
    if (deck.config.audit_invariants) {
      std::printf("audit: %ld run(s), %llu violation(s); last: %s\n",
                  sim.audits_run(),
                  static_cast<unsigned long long>(
                      sim.audit_violations_total()),
                  sim.last_audit().summary().c_str());
      audit_violations += sim.audit_violations_total();
    }
    if (deck.checkpoint_interval <= 0 && !deck.checkpoint_path.empty()) {
      io::CheckpointWriteOptions wopts;
      wopts.executor = &sim.executor();
      io::write_checkpoint(sim, deck.checkpoint_path, wopts);
      std::printf("checkpoint written: %s (%.1f MB raw)\n",
                  deck.checkpoint_path.c_str(),
                  io::checkpoint_size_bytes(sim) / 1048576.0);
    }
  }

  if (!trace_out.empty()) {
    if (recorder.write_chrome_trace(trace_out)) {
      std::printf("trace written: %s (%lld events, %lld dropped)\n",
                  trace_out.c_str(),
                  static_cast<long long>(recorder.events_recorded()),
                  static_cast<long long>(recorder.events_dropped()));
    } else {
      std::fprintf(stderr, "cannot write --trace-out file: %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  if (sink)
    std::printf("diagnostics written: %s (%lld records)\n", diag_out.c_str(),
                static_cast<long long>(sink->records_written()));
  std::printf("%s", perf::TraceRecorder::global().component_report().c_str());
  if (audit_violations > 0) {
    std::fprintf(stderr, "FAILED: %llu AMR invariant violation(s)\n",
                 static_cast<unsigned long long>(audit_violations));
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad decks and restart files surface as enzo::Error: report, exit 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_deck: error: %s\n", e.what());
    return 1;
  }
}
