// Invariant audits: cheap runtime checks of the identities the paper's
// formulation promises — cost accounting (total = resource + reconfig
// within tolerance), per-DC capacity conservation, primal feasibility of
// returned QP solutions, monotone non-increasing best-response cost. The
// engine, solvers and game call check() at the natural verification points;
// each violation increments an `obs.audit.<name>` registry counter, a
// thread-local per-name count (so a sweep lane can attribute violations to
// the exact run that produced them), and — when recording is on — drops a
// marker sample into the thread's ConvergenceRecorder ring so the replay
// bundle's tail shows WHERE the invariant broke.
//
// Off by default (audits cost real work at call sites, e.g. re-checking
// constraint violations of a returned QP solution): call sites gate on
// audit::enabled(), initialized from GEOPLACE_AUDIT (obs::parse_env_switch
// grammar; a path value just arms it) or set_enabled().
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace gp::obs::audit {

/// Global audit flag (relaxed load); GEOPLACE_AUDIT or set_enabled().
bool enabled();
void set_enabled(bool enabled);

/// Records one invariant check. `name` MUST be a static string literal (it
/// is stored by pointer in the thread-local table and the recorder ring).
/// Always bumps obs.audit.checks; on failure bumps obs.audit.<name>, the
/// thread-local violation table, and (when recording) pushes an
/// "audit.violation" recorder sample carrying (observed, bound). Returns ok
/// so call sites can chain. Call only when enabled().
bool check(const char* name, bool ok, double observed = 0.0, double bound = 0.0);

/// Total violations recorded by THIS thread since the last reset — the
/// per-run delta a sweep lane snapshots around engine.run().
long long thread_violations();

/// Per-name violation counts for this thread, sorted by name.
std::vector<std::pair<std::string, long long>> thread_counts();

/// Zeroes this thread's violation table (call at run start in a lane).
void reset_thread_counts();

}  // namespace gp::obs::audit
