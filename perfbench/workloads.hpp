// The benchmark's workloads, one entry point each, plus the helpers they
// share with main.cpp.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

Report run_wire_fip(const Args& args);
Report run_wire_durable(const Args& args);
Report run_sweep_go(const Args& args);
Report run_synth_kbp(const Args& args);

/// "net.encode_us_per_instance" -> "net.encode.share",
/// "action.us_per_instance" -> "action.share", "kripke.synth_s" ->
/// "kripke.synth.share": the share metric of a layer-time metric.
std::string share_name(const std::string& time_metric);

/// Writes the first traced pass's spans to Args::spans_path (when set) and
/// records the outcome as a check.
void write_spans(Report& rep, const Args& args, const std::vector<Span>& spans);

}  // namespace perfbench
