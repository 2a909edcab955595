/// Tests for the serve layer (src/service/): protocol framing, checkpoint
/// write/load and stream recovery, LabService end-to-end (durable
/// streaming, cancel-as-checkpoint, byte-identical resume, live diff),
/// and the ServeSession command loop over in-memory streams.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/batch.hpp"
#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "service/checkpoint.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "support/require.hpp"

namespace sss {
namespace {

/// Small but non-trivial plan: 2 items x (2 daemons x 2 seeds) = 8 trials.
constexpr const char* kServeManifest = R"({
  "name": "serve-test",
  "defaults": {
    "daemons": ["central-rr", "distributed"],
    "seeds_per_daemon": 2,
    "max_steps": 30000,
    "base_seed": 11
  },
  "sweeps": [{
    "graphs": [
      {"family": "path", "n": 6},
      {"family": "star", "leaves": 4}
    ],
    "protocols": [{"name": "coloring"}]
  }]
})";

/// Fresh path under the system temp dir; removed along with its
/// checkpoint sibling so tests do not see each other's streams.
std::string temp_stream(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("sss_service_" + name))
          .string();
  std::remove(path.c_str());
  std::remove(checkpoint_path_for(path).c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The uninterrupted golden stream: the manifest run serially through the
/// batch runner with rows formatted exactly as the serve layer writes
/// them.
std::string golden_stream() {
  ExperimentPlan plan = plan_from_manifest_text(kServeManifest);
  std::string golden;
  BatchOptions options;
  options.threads = 1;
  options.on_trial = [&golden](const BatchTrialRow& row) {
    golden += format_trial_row_jsonl(row) + "\n";
  };
  run_batch(plan.items, options);
  return golden;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesCommandNameAndEchoableId) {
  const ServeCommand a = parse_serve_command(R"({"cmd": "ping"})");
  EXPECT_EQ(a.cmd, "ping");
  EXPECT_EQ(a.id_json, "null");

  const ServeCommand b = parse_serve_command(R"({"cmd": "x", "id": "a-7"})");
  EXPECT_EQ(b.id_json, "\"a-7\"");

  const ServeCommand c = parse_serve_command(R"({"cmd": "x", "id": 42})");
  EXPECT_EQ(c.id_json, "42");
}

TEST(ServeProtocol, RejectsMalformedCommands) {
  EXPECT_THROW(parse_serve_command("[1, 2]"), PreconditionError);
  EXPECT_THROW(parse_serve_command(R"({"id": 1})"), PreconditionError);
  EXPECT_THROW(parse_serve_command(R"({"cmd": 3})"), PreconditionError);
  EXPECT_THROW(parse_serve_command(R"({"cmd": "x", "id": true})"),
               PreconditionError);
  EXPECT_THROW(parse_serve_command("not json"), PreconditionError);
}

TEST(ServeProtocol, BuilderEmitsParseableLines) {
  JsonLineBuilder line = reply_ok("\"tag\"");
  line.field("run", std::string("r1"))
      .field("rows", 7)
      .raw("row", R"({"item": 0})");
  const JsonValue doc = JsonValue::parse(line.str());
  EXPECT_EQ(doc.at("id").as_string(), "tag");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("rows").as_int(), 7);
  EXPECT_EQ(doc.at("row").at("item").as_int(), 0);

  const JsonValue error =
      JsonValue::parse(reply_error("null", "boom \"quoted\"").str());
  EXPECT_TRUE(error.at("id").is_null());
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("error").as_string(), "boom \"quoted\"");

  const JsonValue event = JsonValue::parse(event_line("done", "r2").str());
  EXPECT_EQ(event.at("event").as_string(), "done");
  EXPECT_EQ(event.at("run").as_string(), "r2");
}

// -------------------------------------------------------------- checkpoint

TEST(ServeCheckpoint, WriteLoadRoundTrips) {
  const std::string sink = temp_stream("ckpt.jsonl");
  Checkpoint out;
  out.plan_name = "serve-test";
  out.manifest_json = json_serialize(JsonValue::parse(kServeManifest));
  out.sink_path = sink;
  out.planned_trials = 8;
  out.threads = 3;
  out.parallel_threads = 1;
  out.sweep_mode = "auto";
  write_checkpoint(out);

  const Checkpoint in = load_checkpoint(checkpoint_path_for(sink));
  EXPECT_EQ(in.plan_name, out.plan_name);
  EXPECT_EQ(in.manifest_json, out.manifest_json);
  EXPECT_EQ(in.sink_path, sink);
  EXPECT_EQ(in.planned_trials, 8);
  EXPECT_EQ(in.threads, 3);
  EXPECT_EQ(in.sweep_mode, "auto");
  // The embedded manifest must still expand to the same plan.
  const ExperimentPlan plan = plan_from_manifest_text(in.manifest_json);
  EXPECT_EQ(plan.total_trials(), 8);
}

TEST(ServeCheckpoint, LoadRejectsMissingAndMalformed) {
  EXPECT_THROW(load_checkpoint("/no/such/checkpoint.json"),
               PreconditionError);
  const std::string path = temp_stream("bad.ckpt.json");
  std::ofstream(path) << "{\"plan_name\": \"x\"}";
  EXPECT_THROW(load_checkpoint(path), PreconditionError);
}

TEST(ServeCheckpoint, ScanRecoversWholeRowsAndReportsTornTail) {
  const std::string path = temp_stream("scan.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"item": 0, "trial": 0, "x": 1})" << "\n";
    out << R"({"item": 0, "trial": 1, "x": 2})" << "\n";
    out << R"({"item": 1, "trial": 0, "x": 3})" << "\n";
    out << R"({"item": 1, "tri)";  // torn mid-write
  }
  const StreamScan scan = scan_result_stream(path);
  ASSERT_EQ(scan.keys.size(), 3u);
  EXPECT_EQ(scan.keys[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(scan.keys[2], (std::pair<int, int>{1, 0}));
  EXPECT_EQ(scan.rows[1], R"({"item": 0, "trial": 1, "x": 2})");
  EXPECT_GT(scan.tail_bytes, 0u);

  truncate_stream_tail(path, scan);
  const std::string after = read_file(path);
  EXPECT_EQ(after.size(), scan.complete_bytes);
  EXPECT_EQ(after.back(), '\n');
  EXPECT_EQ(scan_result_stream(path).tail_bytes, 0u);
}

TEST(ServeCheckpoint, ScanHandlesMissingAndEmptyStreams) {
  const StreamScan missing = scan_result_stream("/no/such/stream.jsonl");
  EXPECT_TRUE(missing.keys.empty());
  EXPECT_EQ(missing.tail_bytes, 0u);

  const std::string path = temp_stream("empty.jsonl");
  std::ofstream(path, std::ios::binary).flush();
  const StreamScan empty = scan_result_stream(path);
  EXPECT_TRUE(empty.keys.empty());
  EXPECT_EQ(empty.complete_bytes, 0u);
}

TEST(ServeCheckpoint, ScanRejectsMalformedTerminatedLines) {
  const std::string path = temp_stream("garbage.jsonl");
  std::ofstream(path, std::ios::binary) << "not a row\n";
  EXPECT_THROW(scan_result_stream(path), PreconditionError);
}

// ------------------------------------------------------------- LabService

TEST(LabService, FullRunMatchesGoldenByteForByte) {
  const std::string sink = temp_stream("full.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, options);
  EXPECT_EQ(submitted.planned, 8);
  EXPECT_EQ(submitted.skipped, 0);

  const LabService::RunStatus status = service.wait(submitted.run_id);
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.rows, 8);
  EXPECT_EQ(read_file(sink), golden_stream());
  // The checkpoint was written before the first trial and still loads.
  const Checkpoint checkpoint =
      load_checkpoint(submitted.checkpoint_path);
  EXPECT_EQ(checkpoint.planned_trials, 8);
}

TEST(LabService, RowsStreamBeforeCompletionAndCancelLeavesExactPrefix) {
  const std::string sink = temp_stream("cancel.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;

  // Cancel from inside the 3rd row event: the only way this yields a
  // 3-row file is if rows are delivered while the batch is still running
  // — live streaming is observed, not assumed. The run id comes from the
  // event itself (events may fire before submit() returns).
  std::atomic<int> rows_seen{0};
  options.subscriber = [&service, &rows_seen](const std::string& line) {
    const JsonValue event = JsonValue::parse(line);
    if (event.at("event").as_string() != "row") return;
    if (++rows_seen == 3) service.cancel(event.at("run").as_string());
  };
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, options);

  const LabService::RunStatus status = service.wait(submitted.run_id);
  EXPECT_EQ(status.state, "cancelled");
  EXPECT_EQ(status.rows, 3);
  const std::string golden = golden_stream();
  const std::string prefix = read_file(sink);
  EXPECT_EQ(prefix, golden.substr(0, prefix.size()));
  EXPECT_LT(prefix.size(), golden.size());

  // Cancel left a checkpointed, resumable run: finish it and the
  // concatenated stream is byte-identical to the uninterrupted golden.
  LabService::SubmitOptions resume_options;
  const LabService::Submitted resumed =
      service.resume(checkpoint_path_for(sink), resume_options);
  EXPECT_EQ(resumed.skipped, 3);
  EXPECT_EQ(service.wait(resumed.run_id).state, "done");
  EXPECT_EQ(read_file(sink), golden);
}

TEST(LabService, ResumeTruncatesTornTailAndRebuildsGolden) {
  const std::string golden = golden_stream();
  const std::string sink = temp_stream("torn.jsonl");

  // A checkpoint as submit would have written it.
  Checkpoint checkpoint;
  checkpoint.plan_name = "serve-test";
  checkpoint.manifest_json = json_serialize(JsonValue::parse(kServeManifest));
  checkpoint.sink_path = sink;
  checkpoint.planned_trials = 8;
  checkpoint.threads = 1;
  write_checkpoint(checkpoint);

  // 2 whole rows then a torn third — what a kill -9 mid-write leaves.
  std::size_t second_newline = golden.find('\n', golden.find('\n') + 1) + 1;
  std::ofstream(sink, std::ios::binary)
      << golden.substr(0, second_newline + 17);

  LabService service;
  const LabService::Submitted resumed =
      service.resume(checkpoint_path_for(sink), {});
  EXPECT_EQ(resumed.skipped, 2);
  EXPECT_EQ(service.wait(resumed.run_id).state, "done");
  EXPECT_EQ(read_file(sink), golden);
}

TEST(LabService, ResumeOfCompleteStreamRunsNothing) {
  const std::string sink = temp_stream("complete.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;
  const LabService::Submitted first =
      service.submit(kServeManifest, sink, options);
  service.wait(first.run_id);

  const LabService::Submitted again =
      service.resume(checkpoint_path_for(sink), {});
  EXPECT_EQ(again.skipped, 8);
  const LabService::RunStatus status = service.wait(again.run_id);
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.rows, 8);  // recovered rows; none newly executed
  EXPECT_EQ(read_file(sink), golden_stream());
}

/// Checkpoints written before the batch shard count was retired carry a
/// "shards" key; loading ignores it and the run still resumes.
TEST(LabService, ResumesCheckpointCarryingRetiredShardsKey) {
  const std::string sink = temp_stream("shards.jsonl");
  std::ofstream(checkpoint_path_for(sink), std::ios::binary)
      << "{\n  \"plan_name\": \"serve-test\",\n  \"sink\": "
      << json_quote(sink)
      << ",\n  \"planned_trials\": 8,\n  \"threads\": 1,\n"
         "  \"shards\": 2,\n  \"parallel_threads\": 0,\n"
         "  \"sweep_mode\": \"\",\n  \"manifest\": "
      << kServeManifest << "\n}\n";

  const Checkpoint loaded = load_checkpoint(checkpoint_path_for(sink));
  EXPECT_EQ(loaded.sink_path, sink);
  EXPECT_EQ(loaded.planned_trials, 8);
  EXPECT_EQ(loaded.threads, 1);

  LabService service;
  const LabService::Submitted resumed =
      service.resume(checkpoint_path_for(sink), {});
  EXPECT_EQ(resumed.skipped, 0);
  EXPECT_EQ(service.wait(resumed.run_id).state, "done");
  EXPECT_EQ(read_file(sink), golden_stream());
}

TEST(LabService, DiffAgainstGoldenWhilePartialAndAfterResume) {
  // Golden baseline on disk.
  const std::string baseline = temp_stream("baseline.jsonl");
  std::ofstream(baseline, std::ios::binary) << golden_stream();

  const std::string sink = temp_stream("diff.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;
  std::atomic<int> rows_seen{0};
  options.subscriber = [&service, &rows_seen](const std::string& line) {
    const JsonValue event = JsonValue::parse(line);
    if (event.at("event").as_string() != "row") return;
    if (++rows_seen == 4) service.cancel(event.at("run").as_string());
  };
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, options);
  const std::string run_id = submitted.run_id;
  service.wait(run_id);

  // Terminal-but-incomplete: matches so far, but pending rows make it
  // not clean (a cancelled run does not pass for a finished one).
  const LabService::DiffReport partial = service.diff(run_id, baseline);
  EXPECT_EQ(partial.state, "cancelled");
  EXPECT_EQ(partial.compared, 4);
  EXPECT_EQ(partial.matched, 4);
  EXPECT_EQ(partial.changed, 0);
  EXPECT_EQ(partial.pending, 4);
  EXPECT_FALSE(partial.clean);

  const LabService::Submitted resumed =
      service.resume(checkpoint_path_for(sink), {});
  service.wait(resumed.run_id);
  const LabService::DiffReport full = service.diff(resumed.run_id, baseline);
  EXPECT_EQ(full.compared, 8);
  EXPECT_EQ(full.matched, 8);
  EXPECT_EQ(full.pending, 0);
  EXPECT_TRUE(full.clean);
}

TEST(LabService, SubscribeReplaysEverythingAndSynthesizesDone) {
  const std::string sink = temp_stream("replay.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, options);
  service.wait(submitted.run_id);

  std::vector<std::string> events;
  const int replayed = service.subscribe(
      submitted.run_id, 0,
      [&events](const std::string& line) { events.push_back(line); });
  EXPECT_EQ(replayed, 8);
  ASSERT_EQ(events.size(), 9u);  // 8 rows + exactly one done
  for (int i = 0; i < 8; ++i) {
    const JsonValue event = JsonValue::parse(events[static_cast<std::size_t>(i)]);
    EXPECT_EQ(event.at("event").as_string(), "row");
    EXPECT_EQ(event.at("seq").as_int(), i);
  }
  const JsonValue done = JsonValue::parse(events.back());
  EXPECT_EQ(done.at("event").as_string(), "done");
  EXPECT_EQ(done.at("state").as_string(), "done");
  EXPECT_EQ(done.at("rows").as_int(), 8);
}

TEST(LabService, RejectsSecondWriterOnALiveSink) {
  const std::string sink = temp_stream("exclusive.jsonl");
  LabService service;
  LabService::SubmitOptions slow;
  slow.threads = 1;
  slow.pace_ms = 20;
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, slow);

  // While the first run is live, a second submit (which would truncate
  // the stream under it) and a resume (which would scan and append to a
  // moving stream) of the same sink must both be rejected — and must not
  // have touched the file.
  EXPECT_THROW(service.submit(kServeManifest, sink, {}), PreconditionError);
  EXPECT_THROW(service.resume(checkpoint_path_for(sink), {}),
               PreconditionError);

  service.cancel(submitted.run_id);
  service.wait(submitted.run_id);
  // Terminal runs release their claim: the same path resumes cleanly and
  // still stitches to the golden.
  const LabService::Submitted resumed =
      service.resume(checkpoint_path_for(sink), {});
  EXPECT_EQ(service.wait(resumed.run_id).state, "done");
  EXPECT_EQ(read_file(sink), golden_stream());
}

TEST(LabService, WaitTimeoutReturnsRunningWithoutBlocking) {
  const std::string sink = temp_stream("wait_timeout.jsonl");
  LabService service;
  LabService::SubmitOptions slow;
  slow.threads = 1;
  slow.pace_ms = 30;  // >= 8 * 30ms of pacing: the run cannot finish early
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, slow);
  EXPECT_EQ(service.wait(submitted.run_id, 1).state, "running");

  service.cancel(submitted.run_id);
  const LabService::RunStatus final_status = service.wait(submitted.run_id);
  EXPECT_NE(final_status.state, "running");
  // A timed wait on a settled run reports the terminal state immediately.
  EXPECT_EQ(service.wait(submitted.run_id, 0).state, final_status.state);
}

TEST(LabService, ThrowingDoneSubscriberDoesNotWedgeWait) {
  const std::string sink = temp_stream("throwing_done.jsonl");
  LabService service;
  LabService::SubmitOptions options;
  options.threads = 1;
  options.subscriber = [](const std::string& line) {
    if (JsonValue::parse(line).at("event").as_string() == "done") {
      throw std::runtime_error("client went away");
    }
  };
  const LabService::Submitted submitted =
      service.submit(kServeManifest, sink, options);
  // The worker must swallow the subscriber's throw (a leak would
  // std::terminate the process) and still mark the done event emitted —
  // otherwise this wait hangs forever.
  const LabService::RunStatus status = service.wait(submitted.run_id);
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.rows, 8);
  EXPECT_EQ(read_file(sink), golden_stream());
}

TEST(LabService, MidRunSubscribeSeesEveryRowExactlyOnce) {
  // Attach while the worker is actively producing: the replayed prefix
  // and the live tail must cover seq 0..7 in order with no gap and no
  // duplicate, because the delivery decision commits in the same
  // critical section as the row push. Varying the attach point sweeps
  // the prefix/live split across attempts.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::string sink = temp_stream("mid_attach.jsonl");
    LabService service;
    LabService::SubmitOptions options;
    options.threads = 1;
    options.pace_ms = 3;
    const LabService::Submitted submitted =
        service.submit(kServeManifest, sink, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(4 * attempt));

    std::mutex seen_mutex;
    std::vector<int> seen;
    int dones = 0;
    service.subscribe(submitted.run_id, 0,
                      [&seen_mutex, &seen, &dones](const std::string& line) {
                        const JsonValue event = JsonValue::parse(line);
                        std::lock_guard<std::mutex> lock(seen_mutex);
                        if (event.at("event").as_string() == "row") {
                          seen.push_back(
                              static_cast<int>(event.at("seq").as_int()));
                        } else {
                          ++dones;
                        }
                      });
    service.wait(submitted.run_id);

    std::lock_guard<std::mutex> lock(seen_mutex);
    ASSERT_EQ(seen.size(), 8u) << "attempt " << attempt;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], i)
          << "attempt " << attempt;
    }
    EXPECT_EQ(dones, 1) << "attempt " << attempt;
  }
}

TEST(LabService, RejectsUnknownRunsAndBadManifests) {
  LabService service;
  EXPECT_FALSE(service.status("r99").exists);
  EXPECT_FALSE(service.cancel("r99"));
  EXPECT_THROW(service.wait("r99"), PreconditionError);
  EXPECT_THROW(
      service.subscribe("r99", 0, [](const std::string&) {}),
      PreconditionError);
  EXPECT_THROW(service.submit("{ not json", temp_stream("never.jsonl"), {}),
               PreconditionError);
  EXPECT_THROW(service.resume("/no/such/checkpoint", {}), PreconditionError);
}

TEST(LabService, SubmitRejectsUnrunnableItemsBeforeWritingAnything) {
  // Legal key by key, but a churn item runs one single-threaded engine
  // with no extra steps. Expansion (and the engine overrides) validate
  // every item, so submit throws before the checkpoint or the sink exist.
  const auto manifest = [](const std::string& extra) {
    return R"({"name": "serve-churn", "sweeps": [{
      "graphs": [{"family": "cycle", "n": 6}],
      "protocols": [{"name": "coloring"}],
      "daemons": ["distributed"], "seeds_per_daemon": 1,
      "churn": {"period": 64})" +
           extra + "}]}";
  };
  LabService service;
  const std::string sink = temp_stream("unrunnable.jsonl");
  for (const char* extra :
       {R"(, "extra_steps": 4)", R"(, "parallel_threads": 2)"}) {
    EXPECT_THROW(service.submit(manifest(extra), sink, {}), PreconditionError)
        << extra;
  }
  LabService::SubmitOptions threaded;
  threaded.parallel_threads = 2;
  EXPECT_THROW(service.submit(manifest(""), sink, threaded),
               PreconditionError);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path_for(sink)));
  EXPECT_FALSE(std::filesystem::exists(sink));
}

// ------------------------------------------------------------ ServeSession

/// Runs a scripted session: feeds `lines`, returns every output line.
std::vector<std::string> run_session(LabService& service,
                                     const std::vector<std::string>& lines,
                                     ServeSession::Exit expected_exit) {
  std::string script;
  for (const std::string& line : lines) script += line + "\n";
  std::istringstream in(script);
  std::ostringstream out;
  ServeSession session(service, in, out);
  EXPECT_EQ(session.run(), expected_exit);
  std::vector<std::string> replies;
  std::istringstream reader(out.str());
  std::string reply;
  while (std::getline(reader, reply)) replies.push_back(reply);
  return replies;
}

TEST(ServeSession, PingUnknownAndMalformedProduceTaggedReplies) {
  LabService service;
  const std::vector<std::string> replies = run_session(
      service,
      {R"({"cmd": "ping", "id": 1})", "   ", R"({"cmd": "nope", "id": 2})",
       "garbage", R"({"cmd": "ping", "bogus": true})"},
      ServeSession::Exit::kEof);
  ASSERT_EQ(replies.size(), 4u);  // the blank line produces nothing
  EXPECT_EQ(JsonValue::parse(replies[0]).at("id").as_int(), 1);
  EXPECT_TRUE(JsonValue::parse(replies[0]).at("ok").as_bool());
  const JsonValue unknown = JsonValue::parse(replies[1]);
  EXPECT_EQ(unknown.at("id").as_int(), 2);
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_FALSE(JsonValue::parse(replies[2]).at("ok").as_bool());
  const JsonValue strict = JsonValue::parse(replies[3]);
  EXPECT_FALSE(strict.at("ok").as_bool());
  EXPECT_NE(strict.at("error").as_string().find("bogus"), std::string::npos);
}

TEST(ServeSession, SubmitStreamWaitShutdownEndToEnd) {
  const std::string sink = temp_stream("session.jsonl");
  LabService service;
  // Inline manifest, streaming on: the output must interleave 8 row
  // events and one done event with the three tagged replies.
  std::string submit = R"({"cmd": "submit", "id": "s", "sink": )" +
                       json_quote(sink) +
                       R"(, "threads": 1, "stream": true, "manifest": )" +
                       json_serialize(JsonValue::parse(kServeManifest)) +
                       "}";
  const std::vector<std::string> lines = run_session(
      service,
      {submit, R"({"cmd": "wait", "id": "w", "run": "r1"})",
       R"({"cmd": "shutdown", "id": "z"})"},
      ServeSession::Exit::kShutdown);

  int rows = 0;
  int dones = 0;
  int replies = 0;
  for (const std::string& line : lines) {
    const JsonValue doc = JsonValue::parse(line);
    if (const JsonValue* event = doc.find("event")) {
      if (event->as_string() == "row") ++rows;
      if (event->as_string() == "done") ++dones;
    } else {
      ++replies;
      EXPECT_TRUE(doc.at("ok").as_bool()) << line;
    }
  }
  EXPECT_EQ(rows, 8);
  EXPECT_EQ(dones, 1);
  EXPECT_EQ(replies, 3);
  // No ordering assertion between the submit reply and the first row
  // events: they are multiplexed, and the worker may legitimately emit
  // rows before the reply line is written. The durable stream is the
  // deterministic artifact.
  EXPECT_EQ(read_file(sink), golden_stream());
}

TEST(ServeSession, StreamReplaysFinishedRunsAndDiffReportsClean) {
  const std::string sink = temp_stream("session_replay.jsonl");
  const std::string baseline = temp_stream("session_baseline.jsonl");
  std::ofstream(baseline, std::ios::binary) << golden_stream();
  LabService service;
  {
    LabService::SubmitOptions options;
    options.threads = 1;
    service.wait(service.submit(kServeManifest, sink, options).run_id);
  }
  const std::vector<std::string> lines = run_session(
      service,
      {R"({"cmd": "runs", "id": 1})",
       R"({"cmd": "stream", "id": 2, "run": "r1", "from": 6})",
       R"({"cmd": "diff", "id": 3, "run": "r1", "baseline": )" +
           json_quote(baseline) + "}",
       R"({"cmd": "status", "id": 4, "run": "r1"})"},
      ServeSession::Exit::kEof);
  // runs reply, 2 replayed rows + done event, stream reply, diff reply,
  // status reply.
  ASSERT_EQ(lines.size(), 7u);
  const JsonValue runs = JsonValue::parse(lines[0]);
  EXPECT_EQ(runs.at("runs").items().size(), 1u);
  EXPECT_EQ(JsonValue::parse(lines[1]).at("seq").as_int(), 6);
  EXPECT_EQ(JsonValue::parse(lines[2]).at("seq").as_int(), 7);
  EXPECT_EQ(JsonValue::parse(lines[3]).at("event").as_string(), "done");
  const JsonValue stream_reply = JsonValue::parse(lines[4]);
  EXPECT_EQ(stream_reply.at("replayed").as_int(), 2);
  EXPECT_FALSE(stream_reply.at("live").as_bool());
  const JsonValue diff = JsonValue::parse(lines[5]);
  EXPECT_TRUE(diff.at("clean").as_bool());
  EXPECT_EQ(diff.at("matched").as_int(), 8);
  EXPECT_EQ(JsonValue::parse(lines[6]).at("state").as_string(), "done");
}

TEST(ServeSession, WaitTimeoutKeepsCommandLoopResponsive) {
  const std::string sink = temp_stream("session_wait.jsonl");
  LabService service;
  const std::string submit = R"({"cmd": "submit", "id": "s", "sink": )" +
                             json_quote(sink) +
                             R"(, "threads": 1, "pace_ms": 30, "manifest": )" +
                             json_serialize(JsonValue::parse(kServeManifest)) +
                             "}";
  const std::vector<std::string> lines = run_session(
      service,
      {submit, R"({"cmd": "wait", "id": "t", "run": "r1", "timeout_ms": 1})",
       R"({"cmd": "cancel", "id": "c", "run": "r1"})",
       R"({"cmd": "wait", "id": "w", "run": "r1"})"},
      ServeSession::Exit::kEof);
  // No stream requested, so exactly the four tagged replies, in order:
  // the timed-out wait hands the loop back (state "running") instead of
  // wedging the connection, and cancel + blocking wait then settle it.
  ASSERT_EQ(lines.size(), 4u);
  const JsonValue timed = JsonValue::parse(lines[1]);
  EXPECT_TRUE(timed.at("ok").as_bool());
  EXPECT_EQ(timed.at("state").as_string(), "running");
  const JsonValue settled = JsonValue::parse(lines[3]);
  EXPECT_TRUE(settled.at("ok").as_bool());
  EXPECT_NE(settled.at("state").as_string(), "running");
}

}  // namespace
}  // namespace sss
