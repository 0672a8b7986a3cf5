// Umbrella header: the complete public API of the Pochoir reproduction.
//
//   #include <pochoir/pochoir.hpp>
//
// Core types:   pochoir::Shape<D>, pochoir::Array<T,D>, pochoir::Stencil<D,Ts...>
// Boundaries:   periodic_boundary, dirichlet_boundary, neumann_boundary,
//               mixed_boundary, zero_boundary (BoundaryRule values, which
//               the boundary clone inlines); dirichlet_boundary_fn or any
//               BoundaryFn callable (which it calls)
// Algorithms:   Algorithm::{kTrap,kStrap,kLoopsParallel,kLoopsSerial}
// Tuning:       Options<D>, autotune_coarsening
// Postsource:   Stencil::run_cloned/run_split, the entries of pochoirc's
//               -split-macro-shadow and -split-pointer output (§4)
// Analysis:     analyze_trap/analyze_strap, CacheSim
// Resilience:   Stencil::run_supervised/resume, RunReport, SupervisorOptions,
//               CancelToken, FaultPlan, pochoir::Error
// Telemetry:    pochoir::trace::Session/Span (POCHOIR_TRACE=out.json),
//               telemetry::Registry, write_chrome_trace, WalkStats counters
// DSL veneer:   <pochoir/dsl.hpp> (the paper's Figure 6 macro syntax)
#pragma once

#include "analysis/cache_sim.hpp"
#include "analysis/dag_metrics.hpp"
#include "core/array.hpp"
#include "core/autotune.hpp"
#include "core/boundary.hpp"
#include "core/loops.hpp"
#include "core/options.hpp"
#include "core/shape.hpp"
#include "core/stencil.hpp"
#include "core/trap.hpp"
#include "core/views.hpp"
#include "geometry/cuts.hpp"
#include "geometry/zoid.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/health.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "support/atomic_file.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/json_lint.hpp"
#include "support/timer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/trace.hpp"
