#pragma once

#include <string_view>

#include "core/policy.hpp"
#include "rm/allocation.hpp"

namespace ps::core {

/// True when the context's jobs span more than one SLA class — the only
/// case where class-ordered degradation can differ from the policy
/// output. Single-class mixes (every legacy caller) skip degradation
/// entirely, keeping their allocations bit-identical.
[[nodiscard]] bool has_multiple_sla_classes(const PolicyContext& context);

/// The multi-tenant degradation step of core::rm_step: re-divides the
/// allocation by SLA class (rm::shed_allocation_by_class) so that under
/// scarcity best_effort sheds toward its floors before standard and
/// latency_critical is touched last, then asserts the class invariants
/// (per-class budget conservation, no class inversion) under `where`.
/// Returns the allocation unchanged when the context is single-class.
[[nodiscard]] rm::PowerAllocation apply_sla_degradation(
    const PolicyContext& context, const rm::PowerAllocation& allocation,
    double budget_watts, std::string_view where);

}  // namespace ps::core
