#include "prob/pattern_model.hpp"

#include <algorithm>

namespace minpower {

PatternModel::PatternModel(const Network& net,
                           std::vector<InputPattern> patterns)
    : net_(&net), patterns_(std::move(patterns)) {
  MP_CHECK_MSG(!patterns_.empty(), "pattern model needs at least one pattern");
  double total = 0.0;
  for (const InputPattern& p : patterns_) {
    MP_CHECK(p.values.size() == net.pis().size());
    MP_CHECK(p.weight >= 0.0);
    total += p.weight;
  }
  MP_CHECK_MSG(total > 0.0, "pattern weights must not all be zero");
  for (InputPattern& p : patterns_) p.weight /= total;

  // Evaluate the whole network once per pattern.
  value_.reserve(patterns_.size());
  const std::vector<NodeId> order = net.topo_order();
  for (const InputPattern& p : patterns_) {
    std::vector<char> v(net.capacity(), 0);
    for (std::size_t i = 0; i < net.pis().size(); ++i)
      v[static_cast<std::size_t>(net.pis()[i])] = p.values[i] ? 1 : 0;
    net.simulate(order, v);
    value_.push_back(std::move(v));
  }
}

PatternModel PatternModel::uniform(const Network& net) {
  const std::size_t n = net.pis().size();
  MP_CHECK_MSG(n <= 16, "uniform pattern model limited to 16 PIs");
  std::vector<InputPattern> ps;
  const std::size_t count = std::size_t{1} << n;
  ps.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    InputPattern p;
    p.weight = 1.0;
    p.values.resize(n);
    for (std::size_t i = 0; i < n; ++i) p.values[i] = (m >> i) & 1;
    ps.push_back(std::move(p));
  }
  return PatternModel(net, std::move(ps));
}

double PatternModel::probability(NodeId node) const {
  double p = 0.0;
  for (std::size_t i = 0; i < patterns_.size(); ++i)
    if (value_[i][static_cast<std::size_t>(node)])
      p += patterns_[i].weight;
  return p;
}

double PatternModel::joint(NodeId a, NodeId b) const {
  double p = 0.0;
  for (std::size_t i = 0; i < patterns_.size(); ++i)
    if (value_[i][static_cast<std::size_t>(a)] &&
        value_[i][static_cast<std::size_t>(b)])
      p += patterns_[i].weight;
  return p;
}

JointProbabilities PatternModel::joints(const std::vector<NodeId>& nodes) const {
  std::vector<double> p1;
  p1.reserve(nodes.size());
  for (NodeId n : nodes) p1.push_back(probability(n));
  JointProbabilities j(std::move(p1));
  for (std::size_t a = 0; a < nodes.size(); ++a)
    for (std::size_t b = a + 1; b < nodes.size(); ++b)
      j.set(static_cast<int>(a), static_cast<int>(b), joint(nodes[a], nodes[b]));
  return j;
}

double PatternModel::cube_probability(const std::vector<NodeId>& fanins,
                                      const Cube& cube) const {
  double p = 0.0;
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    std::uint64_t assignment = 0;
    for (std::size_t v = 0; v < fanins.size(); ++v)
      if (value_[i][static_cast<std::size_t>(fanins[v])])
        assignment |= std::uint64_t{1} << v;
    if (cube.eval(assignment)) p += patterns_[i].weight;
  }
  return p;
}

double PatternModel::cube_joint(const std::vector<NodeId>& fanins,
                                const Cube& a, const Cube& b) const {
  double p = 0.0;
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    std::uint64_t assignment = 0;
    for (std::size_t v = 0; v < fanins.size(); ++v)
      if (value_[i][static_cast<std::size_t>(fanins[v])])
        assignment |= std::uint64_t{1} << v;
    if (a.eval(assignment) && b.eval(assignment)) p += patterns_[i].weight;
  }
  return p;
}

std::vector<double> PatternModel::all_probabilities() const {
  std::vector<double> p(net_->capacity(), 0.0);
  for (std::size_t i = 0; i < patterns_.size(); ++i)
    for (std::size_t node = 0; node < p.size(); ++node)
      if (value_[i][node]) p[node] += patterns_[i].weight;
  // Clear dead slots for cleanliness.
  for (NodeId id = 0; id < static_cast<NodeId>(p.size()); ++id)
    if (net_->node(id).is_dead()) p[static_cast<std::size_t>(id)] = 0.0;
  return p;
}

}  // namespace minpower
