#include "sat/remapper.hpp"

#include <stdexcept>

namespace ril::sat {

Remapper Remapper::identity(std::size_t n) {
  Remapper map;
  map.to_inner_.resize(n);
  map.to_outer_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    map.to_inner_[v] = static_cast<Var>(v);
    map.to_outer_[v] = static_cast<Var>(v);
  }
  return map;
}

Remapper Remapper::compacting(const std::vector<bool>& keep) {
  Remapper map;
  map.to_inner_.assign(keep.size(), kNoVar);
  for (std::size_t v = 0; v < keep.size(); ++v) {
    if (!keep[v]) continue;
    map.to_inner_[v] = static_cast<Var>(map.to_outer_.size());
    map.to_outer_.push_back(static_cast<Var>(v));
  }
  return map;
}

bool Remapper::clause_to_inner(std::span<const Lit> outer,
                               Clause& out) const {
  out.clear();
  out.reserve(outer.size());
  for (const Lit l : outer) {
    if (!maps(l.var())) return false;
    out.push_back(lit_to_inner(l));
  }
  return true;
}

void Remapper::append(Var outer, Var inner) {
  if (outer < 0 || inner < 0) {
    throw std::invalid_argument("Remapper::append: negative variable");
  }
  if (static_cast<std::size_t>(outer) < to_inner_.size()) {
    throw std::invalid_argument("Remapper::append: outer var already mapped");
  }
  to_inner_.resize(static_cast<std::size_t>(outer) + 1, kNoVar);
  to_inner_[outer] = inner;
  if (static_cast<std::size_t>(inner) >= to_outer_.size()) {
    to_outer_.resize(static_cast<std::size_t>(inner) + 1, kNoVar);
  }
  to_outer_[inner] = outer;
}

}  // namespace ril::sat
