#include "core/banyan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "netlist/simulator.hpp"

namespace ril::core {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(Banyan, SwitchCountMatchesPaper) {
  EXPECT_EQ(banyan_switch_count(2), 1u);    // the 2x2 block's single switch
  EXPECT_EQ(banyan_switch_count(4), 4u);
  EXPECT_EQ(banyan_switch_count(8), 12u);   // (8/2) * log2(8)
  EXPECT_EQ(banyan_switch_count(16), 32u);
  EXPECT_THROW(banyan_switch_count(3), std::invalid_argument);
  EXPECT_THROW(banyan_switch_count(1), std::invalid_argument);
}

TEST(Banyan, IdentityWithZeroKeys) {
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    const std::vector<bool> keys(banyan_switch_count(n), false);
    const auto perm = banyan_permutation(keys, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(perm[i], i);
  }
}

TEST(Banyan, KeysAlwaysYieldPermutation) {
  std::mt19937_64 rng(5);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    for (int t = 0; t < 20; ++t) {
      std::vector<bool> keys(banyan_switch_count(n));
      for (auto&& k : keys) k = rng() & 1;
      auto perm = banyan_permutation(keys, n);
      std::sort(perm.begin(), perm.end());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(perm[i], i) << "not a permutation, n=" << n;
      }
    }
  }
}

TEST(Banyan, SingleSwitchCrossbar) {
  const auto straight = banyan_permutation({false}, 2);
  EXPECT_EQ(straight[0], 0u);
  EXPECT_EQ(straight[1], 1u);
  const auto crossed = banyan_permutation({true}, 2);
  EXPECT_EQ(crossed[0], 1u);
  EXPECT_EQ(crossed[1], 0u);
}

TEST(Banyan, NetlistMatchesSoftwarePermutation) {
  std::mt19937_64 rng(6);
  for (std::size_t n : {2u, 4u, 8u}) {
    Netlist nl;
    std::vector<NodeId> inputs;
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back(nl.add_input("w" + std::to_string(i)));
    }
    std::size_t counter = 0;
    const BanyanInstance inst = build_banyan(nl, inputs, counter, "net");
    for (NodeId out : inst.outputs) nl.mark_output(out);
    ASSERT_EQ(inst.key_inputs.size(), banyan_switch_count(n));
    EXPECT_EQ(counter, banyan_switch_count(n));

    for (int t = 0; t < 10; ++t) {
      std::vector<bool> keys(inst.key_inputs.size());
      for (auto&& k : keys) k = rng() & 1;
      const auto perm = banyan_permutation(keys, n);

      netlist::Simulator sim(nl);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        sim.set_input_all(inst.key_inputs[i], keys[i]);
      }
      // One-hot probe: drive exactly one input high, find where it lands.
      for (std::size_t probe = 0; probe < n; ++probe) {
        for (std::size_t i = 0; i < n; ++i) {
          sim.set_input_all(inputs[i], i == probe);
        }
        sim.evaluate();
        for (std::size_t o = 0; o < n; ++o) {
          EXPECT_EQ(sim.value(inst.outputs[o]) & 1,
                    perm[probe] == o ? 1u : 0u)
              << "n=" << n << " probe=" << probe << " out=" << o;
        }
      }
    }
  }
}

TEST(Banyan, SwitchBoxUsesTwoMuxesPerElement) {
  Netlist nl;
  std::vector<NodeId> inputs = {nl.add_input("a"), nl.add_input("b")};
  std::size_t counter = 0;
  build_banyan(nl, inputs, counter, "sb");
  std::size_t muxes = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == GateType::kMux) ++muxes;
  }
  EXPECT_EQ(muxes, 2u);  // the paper's 2-MUX element
}

TEST(Banyan, FullLockSwitchBoxCostsMore) {
  Netlist plain;
  Netlist fulllock;
  std::vector<NodeId> in_p = {plain.add_input("a"), plain.add_input("b")};
  std::vector<NodeId> in_f = {fulllock.add_input("a"),
                              fulllock.add_input("b")};
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  build_banyan(plain, in_p, c1, "p");
  build_banyan_fulllock(fulllock, in_f, c2, "f");
  EXPECT_GT(fulllock.gate_count(), plain.gate_count());
  EXPECT_EQ(c2, 3u * c1);  // 3 key bits per switch vs 1
}

TEST(Banyan, FullLockZeroInversionMatchesPlain) {
  std::mt19937_64 rng(7);
  const std::size_t n = 8;
  Netlist nl;
  std::vector<NodeId> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(nl.add_input("w" + std::to_string(i)));
  }
  std::size_t counter = 0;
  const BanyanInstance inst = build_banyan_fulllock(nl, inputs, counter, "f");
  std::vector<bool> swap_keys(banyan_switch_count(n));
  for (auto&& k : swap_keys) k = rng() & 1;
  const auto full_keys = fulllock_keys_from_banyan(swap_keys);
  ASSERT_EQ(full_keys.size(), inst.key_inputs.size());
  const auto perm = banyan_permutation(swap_keys, n);

  netlist::Simulator sim(nl);
  for (std::size_t i = 0; i < full_keys.size(); ++i) {
    sim.set_input_all(inst.key_inputs[i], full_keys[i]);
  }
  for (std::size_t probe = 0; probe < n; ++probe) {
    for (std::size_t i = 0; i < n; ++i) {
      sim.set_input_all(inputs[i], i == probe);
    }
    sim.evaluate();
    for (std::size_t o = 0; o < n; ++o) {
      EXPECT_EQ(sim.value(inst.outputs[o]) & 1, perm[probe] == o ? 1u : 0u);
    }
  }
}

TEST(Banyan, FullLockInversionAliasing) {
  // Two wrong inversions cancel: invert both outputs of a stage-0 switch
  // and compensate in stage 1 -- FullLock's key-aliasing weakness that the
  // paper's 2-MUX element avoids. The network is n = 2 wide: two inputs.
  Netlist nl;
  std::vector<NodeId> inputs = {nl.add_input("a"), nl.add_input("b")};
  std::size_t counter = 0;
  const BanyanInstance inst = build_banyan_fulllock(nl, inputs, counter, "f");
  // n=2: single switch, keys [swap, inv_lo, inv_hi]. With inv keys set the
  // outputs invert; so two distinct keys map to distinct functions here,
  // but for stacked networks the double inversion composes to identity.
  netlist::Simulator sim(nl);
  sim.set_input_all(inst.key_inputs[0], false);
  sim.set_input_all(inst.key_inputs[1], true);
  sim.set_input_all(inst.key_inputs[2], true);
  sim.set_input_all(inputs[0], true);
  sim.set_input_all(inputs[1], false);
  sim.evaluate();
  EXPECT_EQ(sim.value(inst.outputs[0]) & 1, 0u);  // inverted pass-through
  EXPECT_EQ(sim.value(inst.outputs[1]) & 1, 1u);
}

}  // namespace
}  // namespace ril::core
