// FlowSession: structural-hash / option-fingerprint properties (the shard
// journal's resume binding), and a batch runs every circuit it names.
//
// The hash contract under test: declaration-order permutations of the same
// netlist (PI order, .names block order, cube row order) hash identically;
// any functional change — a flipped cube literal, a different option value,
// a different PI probability — or a different BDD variable order changes
// the key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "prob/probability.hpp"
#include "shard/supervisor.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower {
namespace {

using testing::random_network;

std::string to_blif(const Network& net) {
  std::ostringstream os;
  write_blif(net, os);
  return os.str();
}

Network from_blif(const std::string& text) {
  BlifError err;
  std::optional<Network> net = try_read_blif_string(text, &err);
  EXPECT_TRUE(net.has_value()) << err.to_string();
  return std::move(*net);
}

/// Split a BLIF document into (header lines, .names blocks, trailer) so the
/// blocks can be permuted. Assumes write_blif output: one .names header
/// followed by its cube rows.
struct BlifPieces {
  std::vector<std::string> header;               // .model/.inputs/.outputs
  std::vector<std::vector<std::string>> blocks;  // .names + cube rows
  std::vector<std::string> trailer;              // .end
};

BlifPieces split_blif(const std::string& text) {
  BlifPieces p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(".names", 0) == 0) {
      p.blocks.push_back({line});
    } else if (line.rfind(".end", 0) == 0) {
      p.trailer.push_back(line);
    } else if (p.blocks.empty()) {
      p.header.push_back(line);
    } else {
      p.blocks.back().push_back(line);  // cube row of the open block
    }
  }
  return p;
}

std::string join_blif(const BlifPieces& p) {
  std::string out;
  for (const std::string& l : p.header) out += l + "\n";
  for (const auto& b : p.blocks)
    for (const std::string& l : b) out += l + "\n";
  for (const std::string& l : p.trailer) out += l + "\n";
  return out;
}

/// Reverse the .inputs token order (a PI declaration-order permutation), or
/// the tokens of another header line such as ".outputs".
void permute_inputs(BlifPieces* p, const char* keyword = ".inputs") {
  for (std::string& line : p->header) {
    if (line.rfind(keyword, 0) != 0) continue;
    std::istringstream in(line);
    std::string tok;
    std::vector<std::string> toks;
    while (in >> tok) toks.push_back(tok);
    std::reverse(toks.begin() + 1, toks.end());
    line = toks.front();
    for (std::size_t i = 1; i < toks.size(); ++i) line += " " + toks[i];
  }
}

TEST(StructuralHash, InvariantUnderDeclarationPermutations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Baseline and variants all go through the BLIF reader: write_blif
    // inserts PO buffer nodes, so an in-memory network is (correctly) not
    // hash-equal to its own roundtrip.
    BlifPieces p = split_blif(to_blif(random_network(seed)));
    ASSERT_GE(p.blocks.size(), 2u) << "seed " << seed;
    const Hash128 h0 = structural_hash(from_blif(join_blif(p)));

    // Node declaration order: reverse the .names blocks.
    std::reverse(p.blocks.begin(), p.blocks.end());
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "node order changed the hash (seed " << seed << ")";

    // Cube row order within each block.
    for (auto& b : p.blocks)
      if (b.size() > 2) std::reverse(b.begin() + 1, b.end());
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "cube order changed the hash (seed " << seed << ")";

    // PI declaration order.
    permute_inputs(&p);
    EXPECT_EQ(h0, structural_hash(from_blif(join_blif(p))))
        << "PI order changed the hash (seed " << seed << ")";
  }
}

/// `net` stamped with the variable each PI name has in `names_to_var`.
void stamp_by_name(Network& net,
                   const std::unordered_map<std::string, int>& names_to_var) {
  std::vector<int> order;
  for (const NodeId pi : net.pis()) order.push_back(names_to_var.at(net.node(pi).name));
  net.set_bdd_pi_order(std::move(order));
}

TEST(StructuralHash, FoldsTheBddVariableOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Network net = from_blif(to_blif(random_network(seed)));
    const Hash128 h_default = structural_hash(net);
    // Stamping the order the passes would use anyway keeps the key.
    net.set_bdd_pi_order(dfs_pi_variable_order(net));
    EXPECT_EQ(h_default, structural_hash(net)) << "seed " << seed;

    // Only the order differs: a different key.
    std::vector<int> reversed = dfs_pi_variable_order(net);
    for (int& v : reversed) v = static_cast<int>(reversed.size()) - 1 - v;
    net.set_bdd_pi_order(reversed);
    const Hash128 h_reversed = structural_hash(net);
    EXPECT_NE(h_default, h_reversed) << "seed " << seed;

    // Permuted PI and PO declarations that keep each PI's variable by name
    // keep the key.
    std::unordered_map<std::string, int> var_of;
    for (std::size_t i = 0; i < net.pis().size(); ++i)
      var_of[net.node(net.pis()[i]).name] = reversed[i];
    BlifPieces p = split_blif(to_blif(random_network(seed)));
    permute_inputs(&p);
    permute_inputs(&p, ".outputs");
    Network permuted = from_blif(join_blif(p));
    stamp_by_name(permuted, var_of);
    EXPECT_EQ(h_reversed, structural_hash(permuted)) << "seed " << seed;
  }
}

TEST(StructuralHash, SingleLiteralFlipChangesHash) {
  int flipped = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::string text = to_blif(random_network(seed));
    const Hash128 h0 = structural_hash(from_blif(text));

    // Flip the first cube input literal ('0' <-> '1') on a cube row (a line
    // that does not start with '.').
    std::istringstream in(text);
    std::string line;
    std::size_t offset = 0;
    bool done = false;
    while (!done && std::getline(in, line)) {
      if (line.empty() || line[0] == '.') {
        offset += line.size() + 1;
        continue;
      }
      for (std::size_t i = 0; i < line.size() && line[i] != ' '; ++i) {
        if (line[i] == '0' || line[i] == '1') {
          text[offset + i] = line[i] == '0' ? '1' : '0';
          done = true;
          break;
        }
      }
      offset += line.size() + 1;
    }
    if (!done) continue;  // all-dontcare covers: nothing to flip
    ++flipped;
    EXPECT_NE(h0, structural_hash(from_blif(text)))
        << "literal flip kept the hash (seed " << seed << ")";
  }
  EXPECT_GT(flipped, 0) << "no circuit offered a flippable literal";
}

TEST(StructuralHash, DistinctCircuitsHashDistinct) {
  std::vector<Hash128> seen;
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    seen.push_back(structural_hash(random_network(seed)));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(OptionFingerprint, SensitiveToEveryResultAffectingField) {
  const Network net = random_network(3);
  const FlowOptions base;
  const Hash128 h0 = option_fingerprint(base, net);

  FlowOptions o = base;
  o.vdd = 3.3;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.style = CircuitStyle::kDynamicP;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.task_deadline_ms = 100.0;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.bdd_node_limit = base.bdd_node_limit / 2;
  EXPECT_NE(h0, option_fingerprint(o, net));

  o = base;
  o.relax_factor = 1.5;
  EXPECT_NE(h0, option_fingerprint(o, net));

  // PI probabilities participate: one changed probability changes the key,
  // but an explicit all-default vector matches the empty default.
  o = base;
  o.pi_prob1.assign(net.pis().size(), 0.5);
  EXPECT_EQ(h0, option_fingerprint(o, net));
  o.pi_prob1.front() = 0.3;
  EXPECT_NE(h0, option_fingerprint(o, net));
}

TEST(OptionFingerprint, BindsProbabilitiesByPiName) {
  // Permuting the netlist's PI declaration order AND the probability vector
  // consistently must not change the fingerprint.
  // Both sides roundtrip through BLIF so PO buffer insertion cancels out.
  const Network original = from_blif(to_blif(random_network(5)));
  BlifPieces p = split_blif(to_blif(original));
  permute_inputs(&p);
  const Network permuted = from_blif(join_blif(p));
  ASSERT_EQ(structural_hash(original), structural_hash(permuted));

  FlowOptions a;
  a.pi_prob1.resize(original.pis().size());
  for (std::size_t i = 0; i < a.pi_prob1.size(); ++i)
    a.pi_prob1[i] = 0.1 + 0.05 * static_cast<double>(i);

  // Rebuild the vector in the permuted network's PI order by name.
  FlowOptions b;
  b.pi_prob1.resize(permuted.pis().size());
  for (std::size_t i = 0; i < permuted.pis().size(); ++i) {
    const std::string& name = permuted.node(permuted.pis()[i]).name;
    for (std::size_t j = 0; j < original.pis().size(); ++j)
      if (original.node(original.pis()[j]).name == name)
        b.pi_prob1[i] = a.pi_prob1[j];
  }
  EXPECT_EQ(option_fingerprint(a, original), option_fingerprint(b, permuted));

  // ...and a mismatched assignment (same multiset, wrong PIs) changes it.
  FlowOptions c = b;
  std::reverse(c.pi_prob1.begin(), c.pi_prob1.end());
  EXPECT_NE(option_fingerprint(a, original), option_fingerprint(c, permuted));
}

/// The `engine` block of a minpower.flow.v1 document, as
/// decomp/activity/map pass counts.
std::vector<double> engine_block(const std::string& json) {
  std::string error;
  const std::optional<JsonValue> doc = parse_json(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  if (!doc) return {};
  const JsonValue* engine =
      json_member(*doc, "engine", JsonValue::Kind::kObject, &error);
  EXPECT_NE(engine, nullptr) << error;
  if (engine == nullptr) return {};
  std::vector<double> passes;
  for (const char* key : {"decomp_passes", "activity_passes", "map_passes"}) {
    double v = -1.0;
    EXPECT_TRUE(json_number(*engine, key, &v, &error)) << error;
    passes.push_back(v);
  }
  return passes;
}

TEST(FlowSession, RepeatedCircuitRunsEveryTime) {
  const Library& lib = standard_library();
  FlowSession session(lib);

  Network net = random_network(9);
  prepare_network(net);
  const auto rs = session.run_suite({&net, &net});
  ASSERT_EQ(rs.size(), 2u);
  // Every field but wall times, as the report renders it.
  const auto cell = [](const FlowResult& r) {
    std::ostringstream os;
    JsonWriter w(os);
    write_flow_result_json(w, r, FlowJsonPolicy{/*canonical=*/true});
    return r.circuit + " " + os.str();
  };
  for (std::size_t m = 0; m < 6; ++m)
    EXPECT_EQ(cell(rs[0][m]), cell(rs[1][m])) << method_name(rs[0][m].method);

  // Both copies ran: the in-process report counts what the sharded
  // report counts for the same batch.
  std::ostringstream flat;
  write_flow_json(flat, rs, 1, 0.0, lib.name());
  shard::ShardRun run;
  run.per_circuit = rs;
  std::ostringstream sharded;
  shard::write_sharded_flow_json(sharded, run, 1, lib.name());
  const std::vector<double> want = {6, 6, 12};
  EXPECT_EQ(engine_block(flat.str()), want);
  EXPECT_EQ(engine_block(sharded.str()), want);
}

TEST(FlowSession, FaultHitsOnlyTheNamedCopy) {
  const Library& lib = standard_library();
  Network net = random_network(11);
  prepare_network(net);

  // Ordinal 0 is circuit 0's group 0; the second copy of the circuit is a
  // separate, unfaulted task.
  EngineOptions eo;
  eo.injections.push_back(FaultInjection{"decomp", 0});
  FlowSession session(lib, eo);
  const auto rs = session.run_suite({&net, &net});
  ASSERT_EQ(rs.size(), 2u);
  // Circuit 0's group 0 failed; methods I and IV inherit the failure.
  EXPECT_EQ(rs[0][0].status.state, TaskState::kFailed);
  EXPECT_EQ(rs[0][3].status.state, TaskState::kFailed);
  EXPECT_EQ(rs[0][1].status.state, TaskState::kOk);
  EXPECT_EQ(rs[1][0].status.state, TaskState::kOk);
}

}  // namespace
}  // namespace minpower
