// Umbrella header: the full public API of the rbvc library.
//
//   #include "rbvc/rbvc.h"
//
// pulls in the geometry stack (hulls, distances, delta*), both simulation
// engines, the protocols, every consensus algorithm, and the workload /
// experiment-runner utilities. Fine-grained headers remain available for
// faster builds.
#pragma once

#include "rbvc/common.h"

#include "exec/parallel_executor.h"
#include "obs/metrics.h"

#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/vec.h"

#include "lp/model.h"
#include "lp/simplex.h"

#include "geometry/caratheodory.h"
#include "geometry/distance.h"
#include "geometry/hull.h"
#include "geometry/poly2d.h"
#include "geometry/projection.h"
#include "geometry/simplex_geometry.h"
#include "geometry/tverberg.h"

#include "opt/outer_approx.h"

#include "hull/delta_star.h"
#include "hull/gamma.h"
#include "hull/psi.h"
#include "hull/relaxed_hull.h"

#include "sim/async_engine.h"
#include "sim/message.h"
#include "sim/rng.h"
#include "sim/schedule_log.h"
#include "sim/signatures.h"
#include "sim/sync_engine.h"
#include "sim/trace.h"

#include "net/local_bus.h"
#include "net/mailbox.h"
#include "net/node.h"
#include "net/sim_transport.h"
#include "net/sync_driver.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "net/wire.h"

#include "mc/choices.h"
#include "mc/explorer.h"

#include "protocols/bracha_rbc.h"
#include "protocols/dolev_strong.h"
#include "protocols/om_broadcast.h"
#include "protocols/scalar_consensus.h"
#include "protocols/witness.h"

#include "consensus/algo_relaxed.h"
#include "consensus/async_averaging.h"
#include "consensus/exact_bvc.h"
#include "consensus/hull_consensus.h"
#include "consensus/iterative_bvc.h"
#include "consensus/k_relaxed.h"
#include "consensus/verifier.h"

#include "workload/adversarial_inputs.h"
#include "workload/byzantine_strategies.h"
#include "workload/generators.h"
#include "workload/runner.h"

#include "harness/exhaustive.h"
#include "harness/property.h"
#include "harness/repro.h"
#include "harness/shrinker.h"
