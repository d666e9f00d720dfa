// Experiment C5 (§6.2): synchronization bandwidth. "Even if the switches
// synchronize 10 MB (about the full memory size) every 1 ms, the total
// bandwidth consumed ... would constitute 10MB / (1ms x 5Tbps) ~ 1% of the
// total switch bandwidth."
//
// Part A reproduces the paper's first-principles table across state sizes
// and sync periods. Part B measures the actual sync traffic emitted by a
// running fabric (bytes on the wire per second, as a share of configured
// link capacity), confirming the model matches the implementation.
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

int main() {
  constexpr double kSwitchBandwidthBps = 5e12;  // 5 Tbps, the paper's figure
  {
    TextTable table("C5a: periodic-sync bandwidth as % of a 5 Tbps switch (analytical)");
    table.header({"state size", "period 0.1 ms", "period 1 ms", "period 10 ms", "period 100 ms"});
    for (double mb : {1.0, 5.0, 10.0}) {
      std::vector<std::string> row{bench::fmt(mb, 0) + " MB"};
      for (double period_ms : {0.1, 1.0, 10.0, 100.0}) {
        const double bps = mb * 1e6 * 8 / (period_ms / 1e3);
        row.push_back(bench::fmt(100.0 * bps / kSwitchBandwidthBps, 3) + "%");
      }
      table.row(row);
    }
    table.print(std::cout);
    std::cout << "paper's data point: 10 MB @ 1 ms = "
              << bench::fmt(100.0 * (10e6 * 8 / 1e-3) / kSwitchBandwidthBps, 2)
              << "% of 5 Tbps (the paper rounds to ~1%).\n\n";
  }

  {
    TextTable table(
        "C5b: measured sync traffic, 3 switches, 100 Gbps links (registers all dirty)");
    table.header({"registers", "sync period", "sync bytes/s per switch", "% of 100 Gbps"});
    for (std::size_t regs : {1024u, 8192u}) {
      for (TimeNs period : {1 * kMs, 10 * kMs}) {
        shm::FabricConfig cfg;
        cfg.num_switches = 3;
        cfg.runtime.sync_period = period;
        cfg.runtime.sync_fanout = shm::SyncFanout::kRandomOne;
        bench::DriverRig rig(cfg, regs, 0, /*mirror_batch=*/1);
        // Dirty every register once so the scan ships the full state.
        for (std::size_t k = 0; k < regs; ++k) {
          rig.fabric.runtime(0).update(bench::kCtrSpace, k, 1, nullptr);
          rig.fabric.runtime(1).update(bench::kCtrSpace, k, 1, nullptr);
          rig.fabric.runtime(2).update(bench::kCtrSpace, k, 1, nullptr);
        }
        const TimeNs duration = 200 * kMs;
        const auto before = rig.fabric.runtime(0).stats().bytes_ewo;
        rig.fabric.run_for(duration);
        const auto bytes = rig.fabric.runtime(0).stats().bytes_ewo - before;
        const double bytes_per_sec =
            static_cast<double>(bytes) * kSec / static_cast<double>(duration);
        table.row({std::to_string(regs), bench::fmt(period / 1e6, 0) + " ms",
                   bench::fmt(bytes_per_sec, 0),
                   bench::fmt(100.0 * bytes_per_sec * 8 / 100e9, 4) + "%"});
      }
    }
    table.print(std::cout);
  }

  bench::print_expectation(
      "full-state synchronization is cheap relative to switch bandwidth: ~1% for 10 MB every "
      "1 ms at 5 Tbps, scaling linearly with state size and inversely with the period; the "
      "measured traffic follows the analytical model.");
  return 0;
}
