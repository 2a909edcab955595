#include "service/session.hpp"

#include <fstream>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "service/protocol.hpp"
#include "support/require.hpp"
#include "support/string_util.hpp"

namespace sss {

namespace {

/// Strict command schema: every key in `command.doc` must be one of
/// `allowed` ("cmd" and "id" are always allowed), mirroring the manifest
/// reader's unknown-key-is-an-error posture so typos fail loudly.
void check_keys(const ServeCommand& command,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : command.doc.members()) {
    if (key == "cmd" || key == "id") continue;
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    SSS_REQUIRE(known, "\"" + command.cmd + "\" does not take key \"" + key +
                           "\" at " + value.where());
  }
}

std::string require_string(const ServeCommand& command,
                           const std::string& key) {
  const JsonValue& value = command.doc.at(key);
  SSS_REQUIRE(value.is_string(), "\"" + key + "\" must be a string, got " +
                                     std::string(JsonValue::kind_name(
                                         value.kind())) +
                                     " at " + value.where());
  return value.as_string();
}

std::string optional_string(const ServeCommand& command,
                            const std::string& key) {
  const JsonValue* value = command.doc.find(key);
  if (value == nullptr) return "";
  SSS_REQUIRE(value->is_string(), "\"" + key + "\" must be a string, got " +
                                      std::string(JsonValue::kind_name(
                                          value->kind())) +
                                      " at " + value->where());
  return value->as_string();
}

int optional_int(const ServeCommand& command, const std::string& key,
                 int fallback) {
  const JsonValue* value = command.doc.find(key);
  if (value == nullptr) return fallback;
  SSS_REQUIRE(value->is_number(), "\"" + key + "\" must be an integer, got " +
                                      std::string(JsonValue::kind_name(
                                          value->kind())) +
                                      " at " + value->where());
  const std::int64_t parsed = value->as_int();
  SSS_REQUIRE(parsed >= 0, "\"" + key + "\" cannot be negative at " +
                               value->where());
  SSS_REQUIRE(parsed <= 1 << 20,
              "\"" + key + "\" is implausibly large at " + value->where());
  return static_cast<int>(parsed);
}

bool optional_bool(const ServeCommand& command, const std::string& key) {
  const JsonValue* value = command.doc.find(key);
  if (value == nullptr) return false;
  SSS_REQUIRE(value->is_bool(), "\"" + key + "\" must be a boolean, got " +
                                    std::string(JsonValue::kind_name(
                                        value->kind())) +
                                    " at " + value->where());
  return value->as_bool();
}

/// The manifest text a submit carries: an inline "manifest" object or a
/// "manifest_path" file, exactly one of the two.
std::string manifest_text_for(const ServeCommand& command) {
  const JsonValue* inline_manifest = command.doc.find("manifest");
  const JsonValue* path = command.doc.find("manifest_path");
  SSS_REQUIRE((inline_manifest != nullptr) != (path != nullptr),
              "\"submit\" needs exactly one of \"manifest\" and "
              "\"manifest_path\"");
  if (inline_manifest != nullptr) {
    SSS_REQUIRE(inline_manifest->is_object(),
                "\"manifest\" must be an object, got " +
                    std::string(JsonValue::kind_name(
                        inline_manifest->kind())) +
                    " at " + inline_manifest->where());
    return json_serialize(*inline_manifest);
  }
  SSS_REQUIRE(path->is_string(), "\"manifest_path\" must be a string at " +
                                     path->where());
  std::ifstream in(path->as_string(), std::ios::binary);
  SSS_REQUIRE(in.good(),
              "cannot read manifest \"" + path->as_string() + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  SSS_REQUIRE(!in.bad(),
              "read error on manifest \"" + path->as_string() + "\"");
  return text.str();
}

LabService::SubmitOptions options_for(const ServeCommand& command) {
  LabService::SubmitOptions options;
  options.threads = optional_int(command, "threads", 0);
  options.parallel_threads = optional_int(command, "parallel_threads", 0);
  options.sweep_mode = optional_string(command, "sweep_mode");
  options.pace_ms = optional_int(command, "pace_ms", 0);
  return options;
}

JsonLineBuilder submitted_reply(const std::string& id_json,
                                const LabService::Submitted& submitted) {
  JsonLineBuilder line = reply_ok(id_json);
  line.field("run", submitted.run_id)
      .field("trials", submitted.planned)
      .field("skipped", submitted.skipped)
      .field("sink", submitted.sink_path)
      .field("checkpoint", submitted.checkpoint_path);
  return line;
}

JsonLineBuilder status_reply(const std::string& id_json,
                             const std::string& run_id,
                             const LabService::RunStatus& status) {
  JsonLineBuilder line = reply_ok(id_json);
  line.field("run", run_id)
      .field("state", status.state)
      .field("rows", status.rows)
      .field("trials", status.planned)
      .field("skipped", status.skipped)
      .field("sink", status.sink_path);
  if (!status.error.empty()) line.field("error", status.error);
  return line;
}

std::string json_string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

ServeSession::ServeSession(LabService& service, std::istream& in,
                           std::ostream& out)
    : service_(service), in_(in), out_(out) {}

void ServeSession::emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(out_mutex_);
  out_ << line << '\n' << std::flush;
}

ServeSession::Exit ServeSession::run() {
  Exit exit = Exit::kEof;
  std::string line;
  while (std::getline(in_, line)) {
    if (trim(line).empty()) continue;  // blank lines keep a session alive
    std::string id_json = "null";
    try {
      const ServeCommand command = parse_serve_command(line);
      id_json = command.id_json;
      const std::string& cmd = command.cmd;

      if (cmd == "ping") {
        check_keys(command, {});
        emit(reply_ok(id_json).str());

      } else if (cmd == "submit" || cmd == "resume") {
        check_keys(command,
                   cmd == "submit"
                       ? std::initializer_list<const char*>{
                             "manifest", "manifest_path", "sink", "threads",
                             "parallel_threads", "sweep_mode", "pace_ms",
                             "stream"}
                       : std::initializer_list<const char*>{
                             "checkpoint", "threads", "parallel_threads",
                             "sweep_mode", "pace_ms", "stream"});
        LabService::SubmitOptions options = options_for(command);
        if (optional_bool(command, "stream")) {
          options.subscriber = [this](const std::string& event) {
            emit(event);
          };
        }
        const LabService::Submitted submitted =
            cmd == "submit"
                ? service_.submit(manifest_text_for(command),
                                  require_string(command, "sink"),
                                  std::move(options))
                : service_.resume(require_string(command, "checkpoint"),
                                  std::move(options));
        emit(submitted_reply(id_json, submitted).str());

      } else if (cmd == "status") {
        check_keys(command, {"run"});
        const std::string run_id = require_string(command, "run");
        const LabService::RunStatus status = service_.status(run_id);
        SSS_REQUIRE(status.exists, "unknown run \"" + run_id + "\"");
        emit(status_reply(id_json, run_id, status).str());

      } else if (cmd == "runs") {
        check_keys(command, {});
        JsonLineBuilder reply = reply_ok(id_json);
        reply.raw("runs", json_string_array(service_.run_ids()));
        emit(reply.str());

      } else if (cmd == "stream") {
        check_keys(command, {"run", "from"});
        const std::string run_id = require_string(command, "run");
        const int from = optional_int(command, "from", 0);
        const int replayed = service_.subscribe(
            run_id, from,
            [this](const std::string& event) { emit(event); });
        const LabService::RunStatus status = service_.status(run_id);
        JsonLineBuilder reply = reply_ok(id_json);
        reply.field("run", run_id)
            .field("replayed", replayed)
            .field("live", status.state == "running");
        emit(reply.str());

      } else if (cmd == "cancel") {
        check_keys(command, {"run"});
        const std::string run_id = require_string(command, "run");
        SSS_REQUIRE(service_.cancel(run_id),
                    "unknown run \"" + run_id + "\"");
        JsonLineBuilder reply = reply_ok(id_json);
        reply.field("run", run_id);
        emit(reply.str());

      } else if (cmd == "wait") {
        check_keys(command, {"run", "timeout_ms"});
        const std::string run_id = require_string(command, "run");
        // Blocks the command loop; events for this session keep flowing
        // from worker threads while we wait. An optional timeout returns
        // the command loop to the client (reply state "running") so a
        // wedged run cannot wedge the connection too.
        const int timeout_ms = optional_int(command, "timeout_ms", -1);
        const LabService::RunStatus status = service_.wait(run_id, timeout_ms);
        emit(status_reply(id_json, run_id, status).str());

      } else if (cmd == "diff") {
        check_keys(command, {"run", "baseline"});
        const std::string run_id = require_string(command, "run");
        const std::string baseline = require_string(command, "baseline");
        const LabService::DiffReport report =
            service_.diff(run_id, baseline);
        JsonLineBuilder reply = reply_ok(id_json);
        reply.field("run", run_id)
            .field("baseline", baseline)
            .field("state", report.state)
            .field("compared", report.compared)
            .field("matched", report.matched)
            .field("changed", report.changed)
            .field("extra", report.extra)
            .field("pending", report.pending)
            .field("clean", report.clean)
            .raw("deltas", json_string_array(report.deltas));
        emit(reply.str());

      } else if (cmd == "shutdown") {
        check_keys(command, {});
        emit(reply_ok(id_json).str());
        exit = Exit::kShutdown;
        break;

      } else {
        throw PreconditionError("unknown command \"" + cmd + "\"");
      }
    } catch (const std::exception& error) {
      emit(reply_error(id_json, error.what()).str());
    }
  }
  // No worker may touch this session's output stream once run() returns.
  service_.detach_subscribers();
  return exit;
}

}  // namespace sss
