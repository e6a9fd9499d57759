#include "shard/journal.hpp"

#include <cstdio>
#include <sstream>

#include "flow/session.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower::shard {

std::string suite_fingerprint(const std::vector<const Network*>& circuits,
                              const FlowOptions& flow) {
  StreamHash h;
  h.u64(circuits.size());
  for (const Network* net : circuits) {
    const Hash128 s = structural_hash(*net);
    const Hash128 o = option_fingerprint(flow, *net);
    h.u64(s.a ^ o.a);
    h.u64(s.b ^ o.b);
  }
  const Hash128 d = h.digest();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d.a),
                static_cast<unsigned long long>(d.b));
  return buf;
}

bool load_journal(const std::string& path, Journal* out, std::string* error) {
  *out = Journal{};
  std::ifstream in(path);
  if (!in) return json_fail(error, "cannot open journal " + path);
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    const bool torn_tail = in.eof();  // no trailing '\n': write was cut short
    if (line.empty()) continue;
    std::string parse_error;
    std::optional<JsonValue> v = parse_json(line, &parse_error);
    if (!v) {
      if (torn_tail) break;  // torn trailing line: drop it
      return json_fail(error, path + ":" + std::to_string(lineno) + ": " +
                                  parse_error);
    }
    std::string field_error;
    if (!saw_header) {
      const JsonValue* schema =
          json_member(*v, "schema", JsonValue::Kind::kString, nullptr);
      if (schema == nullptr || schema->string != "minpower.shard.v1")
        return json_fail(error, path + ": not a minpower.shard.v1 journal");
      const JsonValue* circuits =
          json_member(*v, "circuits", JsonValue::Kind::kArray, &field_error);
      if (circuits == nullptr ||
          !json_string(*v, "library", &out->library, &field_error) ||
          !json_string(*v, "suite_hash", &out->suite_hash, &field_error))
        return json_fail(error,
                         path + ": malformed journal header: " + field_error);
      for (const JsonValue& c : circuits->items) {
        if (c.kind != JsonValue::Kind::kString)
          return json_fail(error,
                           path + ": non-string circuit name in header");
        out->circuits.push_back(c.string);
      }
      saw_header = true;
      continue;
    }
    const std::string where = path + ":" + std::to_string(lineno) + ": ";
    JournalCell jc;
    const JsonValue* cell =
        json_member(*v, "cell", JsonValue::Kind::kObject, &field_error);
    if (cell == nullptr || !json_size(*v, "ci", &jc.ci, &field_error) ||
        !json_size(*v, "mi", &jc.mi, &field_error))
      return json_fail(error, where + "malformed cell: " + field_error);
    if (jc.ci >= out->circuits.size() || jc.mi >= 6)
      return json_fail(error, where + "cell index out of range");
    if (!parse_flow_result_json(*cell, &jc.result, &field_error))
      return json_fail(error, where + field_error);
    jc.result.circuit = out->circuits[jc.ci];
    out->cells.push_back(std::move(jc));
  }
  if (!saw_header)
    return json_fail(error, path + ": empty journal (no header)");
  return true;
}

bool JournalWriter::create(const std::string& path, const std::string& library,
                           const std::string& suite_hash,
                           const std::vector<std::string>& circuits,
                           std::string* error) {
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) return json_fail(error, "cannot create journal " + path);
  std::ostringstream line;
  {
    JsonWriter w(line, /*pretty=*/false);
    w.begin_object();
    w.field("schema", "minpower.shard.v1");
    w.field("library", library);
    w.field("suite_hash", suite_hash);
    w.key("circuits");
    w.begin_array();
    for (const std::string& c : circuits) w.value(c);
    w.end_array();
    w.end_object();
  }
  out_ << line.str() << '\n' << std::flush;
  return out_.good() ||
         json_fail(error, "cannot write journal header to " + path);
}

bool JournalWriter::open_append(const std::string& path, std::string* error) {
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_) return json_fail(error, "cannot append to journal " + path);
  return true;
}

void JournalWriter::append_cell(std::size_t ci, std::size_t mi,
                                const FlowResult& r) {
  if (!out_.is_open()) return;
  std::ostringstream line;
  {
    JsonWriter w(line, /*pretty=*/false);
    w.begin_object();
    w.field("ci", ci);
    w.field("mi", mi);
    w.key("cell");
    write_flow_result_json(w, r);
    w.end_object();
  }
  out_ << line.str() << '\n' << std::flush;
}

}  // namespace minpower::shard
