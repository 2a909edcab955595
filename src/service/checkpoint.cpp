#include "service/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/require.hpp"

namespace sss {

std::string checkpoint_path_for(const std::string& sink_path) {
  return sink_path + ".ckpt.json";
}

std::string checkpoint_to_json(const Checkpoint& checkpoint) {
  // The manifest is embedded as a nested object (not a quoted string), so
  // a checkpoint stays a readable, greppable JSON document.
  std::string out = "{\n";
  out += "  \"plan_name\": " + json_quote(checkpoint.plan_name) + ",\n";
  out += "  \"sink\": " + json_quote(checkpoint.sink_path) + ",\n";
  out += "  \"planned_trials\": " +
         std::to_string(checkpoint.planned_trials) + ",\n";
  out += "  \"threads\": " + std::to_string(checkpoint.threads) + ",\n";
  out += "  \"parallel_threads\": " +
         std::to_string(checkpoint.parallel_threads) + ",\n";
  out += "  \"sweep_mode\": " + json_quote(checkpoint.sweep_mode) + ",\n";
  out += "  \"manifest\": " + checkpoint.manifest_json + "\n";
  out += "}\n";
  return out;
}

void write_checkpoint(const Checkpoint& checkpoint) {
  const std::string path = checkpoint_path_for(checkpoint.sink_path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SSS_REQUIRE(out.good(), "cannot open checkpoint \"" + path + "\"");
  out << checkpoint_to_json(checkpoint) << std::flush;
  SSS_REQUIRE(out.good(), "write error on checkpoint \"" + path + "\"");
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SSS_REQUIRE(in.good(), "cannot open checkpoint \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  SSS_REQUIRE(!in.bad(), "read error on checkpoint \"" + path + "\"");
  JsonValue doc;
  try {
    doc = JsonValue::parse(text.str());
  } catch (const std::exception& error) {
    throw PreconditionError("checkpoint \"" + path + "\": " + error.what());
  }
  SSS_REQUIRE(doc.is_object(),
              "checkpoint \"" + path + "\" must be a JSON object");
  Checkpoint checkpoint;
  checkpoint.plan_name = doc.at("plan_name").as_string();
  checkpoint.sink_path = doc.at("sink").as_string();
  checkpoint.planned_trials =
      static_cast<int>(doc.at("planned_trials").as_int());
  checkpoint.threads = static_cast<int>(doc.at("threads").as_int());
  checkpoint.parallel_threads =
      static_cast<int>(doc.at("parallel_threads").as_int());
  checkpoint.sweep_mode = doc.at("sweep_mode").as_string();
  const JsonValue& manifest = doc.at("manifest");
  SSS_REQUIRE(manifest.is_object(),
              "checkpoint \"" + path + "\": \"manifest\" must be an object");
  checkpoint.manifest_json = json_serialize(manifest);
  SSS_REQUIRE(checkpoint.planned_trials >= 1,
              "checkpoint \"" + path + "\": planned_trials must be >= 1");
  return checkpoint;
}

StreamScan scan_result_stream(const std::string& path) {
  StreamScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return scan;  // never written: nothing completed
  std::ostringstream buffer;
  buffer << in.rdbuf();
  SSS_REQUIRE(!in.bad(), "read error on result stream \"" + path + "\"");
  const std::string text = buffer.str();

  std::size_t begin = 0;
  int line_number = 0;
  while (begin < text.size()) {
    const std::size_t newline = text.find('\n', begin);
    if (newline == std::string::npos) {
      // Torn tail: the process died inside a row write. Report it; the
      // caller truncates before resuming.
      scan.tail_bytes = text.size() - begin;
      break;
    }
    ++line_number;
    const std::string line = text.substr(begin, newline - begin);
    if (!line.empty()) {
      JsonValue row;
      try {
        row = JsonValue::parse(line);
      } catch (const std::exception& error) {
        throw PreconditionError(path + ":" + std::to_string(line_number) +
                                ": not a result row: " + error.what());
      }
      SSS_REQUIRE(row.is_object(),
                  path + ":" + std::to_string(line_number) +
                      ": result rows must be JSON objects");
      scan.keys.emplace_back(static_cast<int>(row.at("item").as_int()),
                             static_cast<int>(row.at("trial").as_int()));
      scan.rows.push_back(line);
    }
    begin = newline + 1;
    scan.complete_bytes = begin;
  }
  return scan;
}

void truncate_stream_tail(const std::string& path, const StreamScan& scan) {
  if (scan.tail_bytes == 0) return;
  std::error_code error;
  std::filesystem::resize_file(path, scan.complete_bytes, error);
  SSS_REQUIRE(!error, "cannot truncate torn tail of \"" + path +
                          "\": " + error.message());
}

}  // namespace sss
