// Traced-run extras: layer probes and the per-layer metric table.
//
// Probes time single layers on a workload's own overlay and inputs after
// its measured phase, so they change no reported outcome: transport
// counters are read around workload calls only, and probe spans are kept
// out of the self shares.
#pragma once

#include <string>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/tracer.h"
#include "perfbench/src/workload.h"
#include "src/tapestry/network.h"

namespace perfbench {

/// router / registry / metric / store / sim probes (Phase::kProbe).
void run_probes(tap::Network& net, const ProbeInputs& inputs, Tracer& tracer,
                Report& report);

/// Every span-derived per-layer metric.  `measured_ns` is the wall time of
/// the measured phase(s) the self shares divide by.
void report_layers(const Tracer& tracer, double measured_ns, Report& report);

/// `<name>.p25/.p50/.p75` of interleaved enabled/disabled wall ratios of
/// the metrics registry.
void report_registry_ratios(Report& report, const std::vector<double>& ratios);

}  // namespace perfbench
