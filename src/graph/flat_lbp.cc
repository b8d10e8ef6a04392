#include "graph/flat_lbp.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <thread>

#include "util/worker_pool.h"

namespace jocl {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Residual-queue bucket count: bucket b holds residuals in
// [tolerance * 2^(b-1), tolerance * 2^b); the top bucket also absorbs
// +inf (the "never updated" seed priority).
constexpr int kResidualBuckets = 48;

// Normalizes a log-space message span so its max entry is 0 (avoids
// drift). The subtract loop is a pure element-wise lane operation — it
// auto-vectorizes on the padded lanes.
void NormalizeLog(double* message, size_t n) {
  double mx = kNegInf;
  for (size_t i = 0; i < n; ++i) mx = std::max(mx, message[i]);
  if (mx == kNegInf) return;
  for (size_t i = 0; i < n; ++i) message[i] -= mx;
}

// Bucket for a residual r >= tolerance: floor(log2(r / tolerance)),
// clamped to the table. +inf and non-positive tolerances land in the top
// bucket.
int ResidualBucket(double r, double tolerance) {
  if (tolerance <= 0.0 || !(r < std::numeric_limits<double>::infinity())) {
    return kResidualBuckets - 1;
  }
  int exponent = 0;
  std::frexp(r / tolerance, &exponent);  // ratio >= 1 -> exponent >= 1
  return std::min(exponent - 1, kResidualBuckets - 1);
}
}  // namespace

double LogSumExp(const std::vector<double>& values) {
  double mx = kNegInf;
  for (double v : values) mx = std::max(mx, v);
  if (mx == kNegInf) return kNegInf;
  double sum = 0.0;
  for (double v : values) sum += std::exp(v - mx);
  return mx + std::log(sum);
}

FlatLbpEngine::FlatLbpEngine(const FactorGraph* graph,
                             const std::vector<double>* weights,
                             LbpOptions options)
    : graph_(graph), weights_(weights), options_(std::move(options)) {
  BuildSchedule(BuildTopology());
  InitArenas();
}

Status FlatLbpEngine::Validate() const {
  if (weights_ == nullptr) {
    return Status::InvalidArgument("no weight vector bound");
  }
  JOCL_RETURN_NOT_OK(graph_->Validate());
  if (weights_->size() < graph_->weight_count()) {
    return Status::FailedPrecondition(
        "weight vector holds " + std::to_string(weights_->size()) +
        " weights, graph references " +
        std::to_string(graph_->weight_count()));
  }
  return Status::OK();
}

std::vector<uint32_t> FlatLbpEngine::AttachedEdges(VariableId v) const {
  return {attach_edge_.begin() + attach_offset_[v],
          attach_edge_.begin() + attach_offset_[v + 1]};
}

std::vector<uint32_t> FlatLbpEngine::ComponentVariables(size_t k) const {
  return {comp_vars_.begin() + comp_var_offset_[k],
          comp_vars_.begin() + comp_var_offset_[k + 1]};
}

std::vector<uint32_t> FlatLbpEngine::ComponentFactors(size_t k) const {
  return {sched_factor_.begin() + sched_offset_[k],
          sched_factor_.begin() + sched_offset_[k + 1]};
}

std::vector<size_t> FlatLbpEngine::BuildTopology() {
  const FactorGraph& g = *graph_;
  const size_t nv = g.variable_count();
  const size_t ne = g.edge_count();

  // Attachments: counting sort of edges by variable.
  attach_offset_.assign(nv + 1, 0);
  for (size_t e = 0; e < ne; ++e) ++attach_offset_[g.scope_var(e) + 1];
  for (size_t v = 0; v < nv; ++v) attach_offset_[v + 1] += attach_offset_[v];
  attach_edge_.resize(ne);
  std::vector<size_t> cursor(attach_offset_.begin(), attach_offset_.end() - 1);
  for (size_t e = 0; e < ne; ++e) {
    attach_edge_[cursor[g.scope_var(e)]++] = static_cast<uint32_t>(e);
  }

  // Connected components and their variable lists (CSR by component).
  std::vector<size_t> component_of_var = FactorGraphComponents(g);
  component_count_ = 0;
  for (size_t label : component_of_var) {
    component_count_ = std::max(component_count_, label + 1);
  }
  comp_var_offset_.assign(component_count_ + 1, 0);
  for (size_t label : component_of_var) ++comp_var_offset_[label + 1];
  for (size_t k = 0; k < component_count_; ++k) {
    comp_var_offset_[k + 1] += comp_var_offset_[k];
  }
  comp_vars_.resize(nv);
  cursor.assign(comp_var_offset_.begin(), comp_var_offset_.end() - 1);
  for (VariableId v = 0; v < nv; ++v) {
    comp_vars_[cursor[component_of_var[v]]++] = static_cast<uint32_t>(v);
  }
  return component_of_var;
}

void FlatLbpEngine::InitArenas() {
  // Size everything up front so interface queries are defined (if dull)
  // even before Run(), matching the old engine's constructor-allocated
  // storage; Run()'s assign() calls reuse this capacity. Message and
  // belief arenas are lane-padded (tails never read).
  const FactorGraph& g = *graph_;
  potential_.assign(g.total_assignments(), 0.0);
  log_shift_.assign(g.factor_count(), 0.0);
  log_range_.assign(g.factor_count(), kNegInf);
  msg_f2v_.assign(g.total_edge_lane_states(), 0.0);
  msg_v2f_.assign(g.total_edge_lane_states(), 0.0);
  belief_.assign(g.total_var_lane_states(), 0.0);
  marginal_.assign(g.total_var_lane_states(), 0.0);
  marginals_.resize(g.variable_count());
  for (VariableId v = 0; v < g.variable_count(); ++v) {
    marginals_[v].assign(g.cardinality(v), 0.0);
  }
}

void FlatLbpEngine::BuildSchedule(
    const std::vector<size_t>& component_of_var) {
  const FactorGraph& g = *graph_;
  const size_t nf = g.factor_count();

  // Emit factors in seed order — the caller's groups flattened, then the
  // leftover factors — and counting-sort by component. The sort is
  // stable, so each component sees its factors in that order.
  std::vector<uint32_t> order;
  std::vector<uint8_t> scheduled(nf, 0);
  for (const std::vector<FactorId>& group : options_.factor_schedule) {
    for (FactorId f : group) {
      if (f >= nf || g.arity(f) == 0) continue;
      order.push_back(static_cast<uint32_t>(f));
      scheduled[f] = 1;
    }
  }
  for (FactorId f = 0; f < nf; ++f) {
    if (scheduled[f] || g.arity(f) == 0) continue;
    order.push_back(static_cast<uint32_t>(f));
  }

  const size_t nc = component_count_;
  sched_offset_.assign(nc + 1, 0);
  auto component_of_factor = [&](uint32_t f) {
    return component_of_var[g.scope_var(g.scope_offset(f))];
  };
  for (uint32_t f : order) ++sched_offset_[component_of_factor(f) + 1];
  for (size_t k = 0; k < nc; ++k) sched_offset_[k + 1] += sched_offset_[k];
  sched_factor_.resize(order.size());
  std::vector<size_t> cursor(sched_offset_.begin(), sched_offset_.end() - 1);
  for (uint32_t f : order) sched_factor_[cursor[component_of_factor(f)]++] = f;
}

void FlatLbpEngine::RefreshVariable(uint32_t v) {
  const FactorGraph& g = *graph_;
  const size_t card = g.cardinality(v);
  double* sums = AssumeLaneAligned(belief_.data() + g.var_lane_offset(v));
  if (g.IsClamped(v)) {
    const size_t observed = static_cast<size_t>(g.clamped_state(v));
    for (size_t x = 0; x < card; ++x) {
      sums[x] = (x == observed) ? 0.0 : kNegInf;
    }
    for (size_t k = attach_offset_[v]; k < attach_offset_[v + 1]; ++k) {
      double* outgoing = AssumeLaneAligned(
          msg_v2f_.data() + g.edge_lane_offset(attach_edge_[k]));
      for (size_t x = 0; x < card; ++x) {
        outgoing[x] = (x == observed) ? 0.0 : kNegInf;
      }
    }
    return;
  }
  // belief_sums[v][x] = sum over attached edges of msg_f2v. Each += pass
  // is an independent-lane loop over the padded span — vectorizable.
  std::fill(sums, sums + card, 0.0);
  for (size_t k = attach_offset_[v]; k < attach_offset_[v + 1]; ++k) {
    const double* incoming = AssumeLaneAligned(
        msg_f2v_.data() + g.edge_lane_offset(attach_edge_[k]));
    for (size_t x = 0; x < card; ++x) sums[x] += incoming[x];
  }
  NormalizeLog(sums, card);
  // Variable -> factor messages: cavity sums (subtract own incoming),
  // with the normalize max fused into the subtraction pass (one pass
  // fewer than subtract + NormalizeLog; same operations, same order).
  for (size_t k = attach_offset_[v]; k < attach_offset_[v + 1]; ++k) {
    const size_t base = g.edge_lane_offset(attach_edge_[k]);
    double* outgoing = AssumeLaneAligned(msg_v2f_.data() + base);
    const double* incoming = AssumeLaneAligned(msg_f2v_.data() + base);
    double mx = kNegInf;
    for (size_t x = 0; x < card; ++x) {
      const double value = sums[x] - incoming[x];
      outgoing[x] = value;
      mx = std::max(mx, value);
    }
    if (mx == kNegInf) continue;
    for (size_t x = 0; x < card; ++x) outgoing[x] -= mx;
  }
}

void FlatLbpEngine::RefreshComponentVariables(size_t component) {
  for (size_t i = comp_var_offset_[component];
       i < comp_var_offset_[component + 1]; ++i) {
    RefreshVariable(comp_vars_[i]);
  }
}

void FlatLbpEngine::BumpFactorPriority(uint32_t f, double delta,
                                       Scratch* scratch) {
  if (!(delta > scratch->priority[f])) return;
  scratch->priority[f] = delta;
  if (delta < options_.tolerance) return;  // below-certificate: no entry
  const int bucket = ResidualBucket(delta, options_.tolerance);
  if (bucket <= scratch->bucket_of[f]) return;  // queued at least this high
  scratch->bucket_of[f] = bucket;
  const uint32_t stamp = ++scratch->stamp[f];
  scratch->buckets[bucket].push_back((static_cast<uint64_t>(f) << 32) |
                                     stamp);
}

void FlatLbpEngine::RefreshVariableTrackDeltas(uint32_t v, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  if (g.IsClamped(v)) return;  // delta messages never change after init
  const size_t card = g.cardinality(v);
  double* sums = AssumeLaneAligned(belief_.data() + g.var_lane_offset(v));
  std::fill(sums, sums + card, 0.0);
  for (size_t k = attach_offset_[v]; k < attach_offset_[v + 1]; ++k) {
    const double* incoming = AssumeLaneAligned(
        msg_f2v_.data() + g.edge_lane_offset(attach_edge_[k]));
    for (size_t x = 0; x < card; ++x) sums[x] += incoming[x];
  }
  NormalizeLog(sums, card);
  double* lane = scratch->lane.data();
  for (size_t k = attach_offset_[v]; k < attach_offset_[v + 1]; ++k) {
    const uint32_t e = attach_edge_[k];
    const size_t base = g.edge_lane_offset(e);
    double* outgoing = AssumeLaneAligned(msg_v2f_.data() + base);
    const double* incoming = AssumeLaneAligned(msg_f2v_.data() + base);
    double mx = kNegInf;
    for (size_t x = 0; x < card; ++x) {
      const double value = sums[x] - incoming[x];
      lane[x] = value;
      mx = std::max(mx, value);
    }
    const double shift = (mx == kNegInf) ? 0.0 : mx;
    double delta = 0.0;
    for (size_t x = 0; x < card; ++x) {
      const double value = lane[x] - shift;
      const double diff = std::abs(value - outgoing[x]);
      // NaN here means both sides are -inf (no change); an infinite diff
      // is a genuine support change and must reach the queue.
      if (!std::isnan(diff)) delta = std::max(delta, diff);
      outgoing[x] = value;
    }
    BumpFactorPriority(g.edge_factor(e), delta, scratch);
  }
}

// ---------------------------------------------------------------------------
// Factor -> variable kernels.
//
// Every kernel visits assignments in row-major order (last scope slot
// fastest) and skips an assignment the moment any incoming message is -inf.
//
// Probability space: a slot's cavity term is psi(a) times the other
// slots' mu = exp(m), multiplied in scope order (`(psi * mu0) * mu2` for
// slot 1 of a ternary factor), and each fresh cell adds its terms with
// `+=` in visit order, starting from 0. One log per output state turns the
// sums back into log-messages.
//
// Guarded fallback (log space, generic kernel only): the feasible total
// accumulates as `((lp + m0) + m1) + m2`, the per-slot cavity is
// `total - m_slot`, and a max pass over the cavities pivots a stable
// log-sum-exp pass.
//
// The specialized kernels change only *bookkeeping* — no mixed-radix
// counter, no per-assignment feasibility re-scan, hoisted lane pointers —
// so their outputs are byte-identical to the generic ones.
// ---------------------------------------------------------------------------

void FlatLbpEngine::PreparePotentials() {
  const FactorGraph& g = *graph_;
  const size_t nf = g.factor_count();
  log_shift_.assign(nf, 0.0);
  log_range_.assign(nf, kNegInf);
  for (FactorId f = 0; f < nf; ++f) {
    double* table = potential_.data() + g.assignment_offset(f);
    const size_t count = g.assignment_offset(f + 1) - g.assignment_offset(f);
    double hi = kNegInf;
    double lo = 0.0;  // smallest finite entry relative to hi (<= 0)
    for (size_t a = 0; a < count; ++a) hi = std::max(hi, table[a]);
    if (hi == kNegInf) hi = 0.0;  // all-impossible factor: psi = 0
    for (size_t a = 0; a < count; ++a) {
      if (table[a] != kNegInf) lo = std::min(lo, table[a] - hi);
    }
    // A table whose range reaches below the guard (or holds +inf)
    // stays in log space: every update of it takes the log-space path.
    if (!(lo >= kMinLogProduct)) continue;
    log_shift_[f] = hi;
    log_range_[f] = lo;
    for (size_t a = 0; a < count; ++a) table[a] = std::exp(table[a] - hi);
  }
}

double FlatLbpEngine::LogPotential(FactorId f, size_t a) const {
  const double value = potential_[graph_->assignment_offset(f) + a];
  if (log_range_[f] >= kMinLogProduct) return std::log(value) + log_shift_[f];
  return value;
}

template <typename Visit>
void FlatLbpEngine::ForEachClampedAssignment(FactorId f, Scratch* scratch,
                                             Visit&& visit) {
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t arity = g.scope_offset(f + 1) - edge_begin;
  size_t* states = scratch->states.data();
  uint8_t* pinned = scratch->pinned.data();
  // Hoist the per-slot cardinality / stride / lane lookups out of the
  // enumeration.
  size_t* cards = scratch->cards.data();
  size_t* strides = scratch->strides.data();
  size_t* lanes = scratch->lanes.data();

  // Clamped scope variables pin their slot: only assignments consistent
  // with the observations are enumerated (the precomputed strides keep
  // the assignment index in sync while the pinned slots are skipped).
  // The skipped assignments were infeasible anyway — clamped variables
  // send -inf for every unobserved state — so the result is unchanged;
  // the learner's clamped pass just stops paying for them.
  size_t a = 0;
  size_t reduced = 1;
  for (size_t slot = 0; slot < arity; ++slot) {
    const size_t e = edge_begin + slot;
    const uint32_t v = g.scope_var(e);
    cards[slot] = g.cardinality(v);
    strides[slot] = g.slot_stride(e);
    lanes[slot] = g.edge_lane_offset(e);
    if (g.IsClamped(v)) {
      const size_t observed = static_cast<size_t>(g.clamped_state(v));
      states[slot] = observed;
      a += observed * strides[slot];
      pinned[slot] = 1;
    } else {
      states[slot] = 0;
      reduced *= cards[slot];
      pinned[slot] = 0;
    }
  }

  for (size_t r = 0; r < reduced; ++r) {
    visit(a);
    // Increment the mixed-radix counter over free slots (last fastest),
    // keeping the assignment index in sync via the strides.
    for (size_t slot = arity; slot-- > 0;) {
      if (pinned[slot]) continue;
      const size_t stride = strides[slot];
      if (++states[slot] < cards[slot]) {
        a += stride;
        break;
      }
      a -= stride * (states[slot] - 1);
      states[slot] = 0;
    }
  }
}

bool FlatLbpEngine::PrepareProbabilityInputs(FactorId f, Scratch* scratch) {
  // Lower bound on the log of every product the update forms: the table's
  // own range plus each slot's smallest finite input (v->f messages are
  // normalized to max 0). Cavity terms omit one factor <= 1, so they are
  // bounded too.
  double bound = log_range_[f];
  if (bound < kMinLogProduct) return false;  // a log-space table
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t edge_end = g.scope_offset(f + 1);
  const size_t lane_base = g.edge_lane_offset(edge_begin);
  double* mu = scratch->aux.data();
  for (size_t e = edge_begin; e < edge_end; ++e) {
    const size_t card = g.cardinality(g.scope_var(e));
    const double* m =
        AssumeLaneAligned(msg_v2f_.data() + g.edge_lane_offset(e));
    double* out = mu + (g.edge_lane_offset(e) - lane_base);
    double smallest = 0.0;
    for (size_t x = 0; x < card; ++x) {
      out[x] = std::exp(m[x]);  // exp(-inf) == 0: infeasible states
      if (m[x] != kNegInf) smallest = std::min(smallest, m[x]);
    }
    bound += smallest;
  }
  // Above the guard every finite input has mu >= exp(-600) > 0, so mu == 0
  // exactly when m == -inf and the kernels' skip rule is unchanged.
  return bound >= kMinLogProduct;
}

void FlatLbpEngine::UpdateProductGeneric(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t edge_end = g.scope_offset(f + 1);
  const size_t arity = edge_end - edge_begin;
  const double* psi = potential_.data() + g.assignment_offset(f);
  const size_t lane_base = g.edge_lane_offset(edge_begin);
  const size_t factor_lanes = g.edge_lane_offset(edge_end) - lane_base;
  const double* mu = scratch->aux.data();
  double* fresh = scratch->fresh.data();
  std::fill(fresh, fresh + factor_lanes, 0.0);
  const size_t* states = scratch->states.data();
  const size_t* lanes = scratch->lanes.data();
  ForEachClampedAssignment(f, scratch, [&](size_t a) {
    for (size_t slot = 0; slot < arity; ++slot) {
      if (mu[lanes[slot] - lane_base + states[slot]] == 0.0) return;
    }
    for (size_t slot = 0; slot < arity; ++slot) {
      double term = psi[a];
      for (size_t other = 0; other < arity; ++other) {
        if (other != slot) term *= mu[lanes[other] - lane_base + states[other]];
      }
      fresh[lanes[slot] - lane_base + states[slot]] += term;
    }
  });
}

void FlatLbpEngine::UpdateProductUnary(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t card = g.cardinality(g.scope_var(g.scope_offset(f)));
  const double* psi = potential_.data() + g.assignment_offset(f);
  const double* mu0 = scratch->aux.data();
  double* fresh = scratch->fresh.data();
  // The cavity of a unary factor is psi itself; `0.0 + psi == psi`, so
  // the single write matches the generic kernel's one accumulation.
  for (size_t s = 0; s < card; ++s) fresh[s] = mu0[s] == 0.0 ? 0.0 : psi[s];
}

void FlatLbpEngine::UpdateProductBinary(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t e0 = g.scope_offset(f);
  const size_t e1 = e0 + 1;
  const size_t c0 = g.cardinality(g.scope_var(e0));
  const size_t c1 = g.cardinality(g.scope_var(e1));
  const double* psi = potential_.data() + g.assignment_offset(f);
  const size_t lane_base = g.edge_lane_offset(e0);
  const size_t offset1 = g.edge_lane_offset(e1) - lane_base;
  const double* mu0 = scratch->aux.data();
  const double* mu1 = mu0 + offset1;
  double* fresh0 = scratch->fresh.data();
  double* fresh1 = fresh0 + offset1;
  std::fill(fresh0, fresh0 + (g.edge_lane_offset(e1 + 1) - lane_base), 0.0);

  const double* row = psi;
  for (size_t s0 = 0; s0 < c0; ++s0, row += c1) {
    const double u0 = mu0[s0];
    // Row skip == the reference's slot-0 feasibility break: every
    // assignment in this row is infeasible and adds nothing.
    if (u0 == 0.0) continue;
    double acc0 = 0.0;  // fresh0[s0] sum, kept in a register
    for (size_t s1 = 0; s1 < c1; ++s1) {
      const double u1 = mu1[s1];
      if (u1 == 0.0) continue;
      acc0 += row[s1] * u1;
      fresh1[s1] += row[s1] * u0;
    }
    fresh0[s0] = acc0;
  }
}

void FlatLbpEngine::UpdateProductTernary(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t e0 = g.scope_offset(f);
  const size_t e1 = e0 + 1;
  const size_t e2 = e0 + 2;
  const size_t c0 = g.cardinality(g.scope_var(e0));
  const size_t c1 = g.cardinality(g.scope_var(e1));
  const size_t c2 = g.cardinality(g.scope_var(e2));
  const double* psi = potential_.data() + g.assignment_offset(f);
  const size_t lane_base = g.edge_lane_offset(e0);
  const size_t offset1 = g.edge_lane_offset(e1) - lane_base;
  const size_t offset2 = g.edge_lane_offset(e2) - lane_base;
  const double* mu0 = scratch->aux.data();
  const double* mu1 = mu0 + offset1;
  const double* mu2 = mu0 + offset2;
  double* fresh0 = scratch->fresh.data();
  double* fresh1 = fresh0 + offset1;
  double* fresh2 = fresh0 + offset2;
  std::fill(fresh0, fresh0 + (g.edge_lane_offset(e2 + 1) - lane_base), 0.0);

  for (size_t s0 = 0; s0 < c0; ++s0) {
    const double u0 = mu0[s0];
    if (u0 == 0.0) continue;
    double acc0 = 0.0;  // spans the whole s1 x s2 plane
    const double* plane = psi + s0 * c1 * c2;
    for (size_t s1 = 0; s1 < c1; ++s1) {
      const double u1 = mu1[s1];
      if (u1 == 0.0) continue;
      double acc1 = fresh1[s1];  // resumes this cell's sum across s0
      const double* row = plane + s1 * c2;
      for (size_t s2 = 0; s2 < c2; ++s2) {
        const double u2 = mu2[s2];
        if (u2 == 0.0) continue;
        const double p = row[s2];
        acc0 += (p * u1) * u2;
        acc1 += (p * u0) * u2;
        fresh2[s2] += (p * u0) * u1;
      }
      fresh1[s1] = acc1;
    }
    fresh0[s0] = acc0;
  }
}

void FlatLbpEngine::UpdateLogSpaceGeneric(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t edge_end = g.scope_offset(f + 1);
  const size_t arity = edge_end - edge_begin;
  const size_t lane_base = g.edge_lane_offset(edge_begin);
  const size_t factor_lanes = g.edge_lane_offset(edge_end) - lane_base;
  double* fresh = scratch->fresh.data();
  std::fill(fresh, fresh + factor_lanes, kNegInf);
  const size_t* states = scratch->states.data();
  const size_t* lanes = scratch->lanes.data();
  // The feasible total `((lp + m0) + m1) + ...`, or -inf for an
  // assignment some incoming message rules out (skipped by both passes).
  auto total_of = [&](size_t a) {
    double total = LogPotential(f, a);
    for (size_t slot = 0; slot < arity; ++slot) {
      const double m = msg_v2f_[lanes[slot] + states[slot]];
      if (m == kNegInf) return kNegInf;
      total += m;
    }
    return total;
  };

  // Max pass: each cell's pivot for the sum pass.
  ForEachClampedAssignment(f, scratch, [&](size_t a) {
    const double total = total_of(a);
    if (total == kNegInf) return;
    for (size_t slot = 0; slot < arity; ++slot) {
      const double cavity = total - msg_v2f_[lanes[slot] + states[slot]];
      double& cell = fresh[lanes[slot] - lane_base + states[slot]];
      cell = std::max(cell, cavity);
    }
  });

  // Sum pass: stable log-sum-exp per cell, `max + log(sum exp(c - max))`.
  double* sums = scratch->aux.data();
  std::fill(sums, sums + factor_lanes, 0.0);
  ForEachClampedAssignment(f, scratch, [&](size_t a) {
    const double total = total_of(a);
    if (total == kNegInf) return;
    for (size_t slot = 0; slot < arity; ++slot) {
      const size_t cell = lanes[slot] - lane_base + states[slot];
      const double cavity = total - msg_v2f_[lanes[slot] + states[slot]];
      sums[cell] += std::exp(cavity - fresh[cell]);
    }
  });
  for (size_t i = 0; i < factor_lanes; ++i) {
    if (fresh[i] != kNegInf) fresh[i] += std::log(sums[i]);
  }
}

void FlatLbpEngine::FinishFactorUpdate(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t edge_end = g.scope_offset(f + 1);
  const size_t lane_base = g.edge_lane_offset(edge_begin);
  double* fresh = scratch->fresh.data();
  for (size_t e = edge_begin; e < edge_end; ++e) {
    const size_t card = g.cardinality(g.scope_var(e));
    double* fr = fresh + (g.edge_lane_offset(e) - lane_base);
    // Normalize max pass (a pure lane reduction), then the subtract —
    // the same operations as NormalizeLog: `x - 0.0 == x` bit-for-bit
    // when the lane is all -inf (NormalizeLog's early-out case).
    double mx = kNegInf;
    for (size_t x = 0; x < card; ++x) mx = std::max(mx, fr[x]);
    const double shift = (mx == kNegInf) ? 0.0 : mx;
    double* out = AssumeLaneAligned(msg_f2v_.data() + g.edge_lane_offset(e));
    for (size_t x = 0; x < card; ++x) out[x] = fr[x] - shift;
  }
}

bool FlatLbpEngine::UpdateFactorMessages(FactorId f, Scratch* scratch) {
  const FactorGraph& g = *graph_;
  const size_t arity = g.arity(f);
  const bool generic =
      options_.kernel == LbpKernel::kScalarReference || arity > 3;
  if (!PrepareProbabilityInputs(f, scratch)) {
    UpdateLogSpaceGeneric(f, scratch);
    FinishFactorUpdate(f, scratch);
    return true;
  }
  if (generic) {
    UpdateProductGeneric(f, scratch);
  } else if (arity == 1) {
    UpdateProductUnary(f, scratch);
  } else if (arity == 2) {
    UpdateProductBinary(f, scratch);
  } else {
    UpdateProductTernary(f, scratch);
  }
  // Back to log-messages: one log per output state (log(0) == -inf for
  // states with no feasible assignment).
  const size_t edge_begin = g.scope_offset(f);
  const size_t lane_base = g.edge_lane_offset(edge_begin);
  double* fresh = scratch->fresh.data();
  for (size_t e = edge_begin; e < edge_begin + arity; ++e) {
    double* fr = fresh + (g.edge_lane_offset(e) - lane_base);
    const size_t card = g.cardinality(g.scope_var(e));
    for (size_t x = 0; x < card; ++x) fr[x] = std::log(fr[x]);
  }
  FinishFactorUpdate(f, scratch);
  return false;
}

void FlatLbpEngine::MaterializeComponentMarginals(size_t component) {
  const FactorGraph& g = *graph_;
  for (size_t i = comp_var_offset_[component];
       i < comp_var_offset_[component + 1]; ++i) {
    const uint32_t v = comp_vars_[i];
    const size_t card = g.cardinality(v);
    const double* log_belief =
        AssumeLaneAligned(belief_.data() + g.var_lane_offset(v));
    double* out = AssumeLaneAligned(marginal_.data() + g.var_lane_offset(v));
    double mx = kNegInf;
    for (size_t x = 0; x < card; ++x) mx = std::max(mx, log_belief[x]);
    if (mx == kNegInf) {
      // All states impossible (should not happen); fall back to uniform.
      for (size_t x = 0; x < card; ++x) {
        out[x] = 1.0 / static_cast<double>(card);
      }
      continue;
    }
    double sum = 0.0;
    for (size_t x = 0; x < card; ++x) sum += std::exp(log_belief[x] - mx);
    const double lse = mx + std::log(sum);
    for (size_t x = 0; x < card; ++x) out[x] = std::exp(log_belief[x] - lse);
  }
}

FlatLbpEngine::ComponentStats FlatLbpEngine::RunComponent(size_t component,
                                                          Scratch* scratch) {
  const FactorGraph& g = *graph_;
  ComponentStats stats;
  RefreshComponentVariables(component);
  const size_t begin = sched_offset_[component];
  const size_t end = sched_offset_[component + 1];
  const size_t nf = end - begin;
  if (nf == 0) {
    // No factors: beliefs (uniform or clamped delta) are already final.
    stats.converged = true;
    MaterializeComponentMarginals(component);
    return stats;
  }

  // Lazily size the factor-indexed queue state, then reset only this
  // component's slots (workers reuse one Scratch across components).
  if (scratch->priority.size() < g.factor_count()) {
    scratch->priority.assign(g.factor_count(), 0.0);
    scratch->bucket_of.assign(g.factor_count(), -1);
    scratch->stamp.assign(g.factor_count(), 0);
  }
  if (scratch->buckets.size() < static_cast<size_t>(kResidualBuckets)) {
    scratch->buckets.resize(kResidualBuckets);
    scratch->bucket_head.resize(kResidualBuckets);
  }
  for (int b = 0; b < kResidualBuckets; ++b) {
    scratch->buckets[b].clear();
    scratch->bucket_head[b] = 0;
  }
  for (size_t i = begin; i < end; ++i) {
    const uint32_t f = sched_factor_[i];
    scratch->priority[f] = 0.0;
    scratch->bucket_of[f] = -1;
  }

  // Seed every factor at +inf priority, in seed order — the first
  // "sweep's worth" of pops replays the paper's staged order (§3.4)
  // before residuals take over.
  for (size_t i = begin; i < end; ++i) {
    BumpFactorPriority(sched_factor_[i],
                       std::numeric_limits<double>::infinity(), scratch);
  }

  const size_t budget = options_.max_iterations * nf;
  int top = kResidualBuckets - 1;
  while (stats.message_updates < budget) {
    // Pop the highest-residual factor: scan buckets downward, FIFO within
    // a bucket, skipping stale entries (a factor re-queued at a higher
    // bucket leaves its old entry behind).
    uint32_t f = 0;
    bool found = false;
    while (top >= 0) {
      auto& bucket = scratch->buckets[top];
      size_t& head = scratch->bucket_head[top];
      if (head == bucket.size()) {
        bucket.clear();
        head = 0;
        --top;
        continue;
      }
      const uint64_t entry = bucket[head++];
      ++stats.residual_pops;
      const uint32_t candidate = static_cast<uint32_t>(entry >> 32);
      const uint32_t stamp = static_cast<uint32_t>(entry);
      if (scratch->bucket_of[candidate] != top ||
          scratch->stamp[candidate] != stamp) {
        continue;  // stale
      }
      f = candidate;
      found = true;
      break;
    }
    if (!found) break;  // queue drained: every pending residual < tolerance

    scratch->bucket_of[f] = -1;
    scratch->priority[f] = 0.0;
    if (UpdateFactorMessages(f, scratch)) {
      ++stats.log_space_updates;
    }
    ++stats.message_updates;
    // Propagate: refresh the scope variables now (asynchronous BP) and
    // raise the priority of every factor whose inputs moved.
    const size_t edge_begin = g.scope_offset(f);
    const size_t edge_end = g.scope_offset(f + 1);
    for (size_t e = edge_begin; e < edge_end; ++e) {
      const uint32_t v = g.scope_var(e);
      bool seen = false;  // scopes may repeat a variable; refresh once
      for (size_t p = edge_begin; p < e; ++p) {
        if (g.scope_var(p) == v) {
          seen = true;
          break;
        }
      }
      if (!seen) RefreshVariableTrackDeltas(v, scratch);
    }
    // A re-raised top pointer: BumpFactorPriority may have pushed above
    // the current scan position.
    for (int b = kResidualBuckets - 1; b > top; --b) {
      if (scratch->bucket_head[b] != scratch->buckets[b].size()) {
        top = b;
        break;
      }
    }
  }

  // Convergence certificate: the largest residual still pending at stop.
  double certificate = 0.0;
  for (size_t i = begin; i < end; ++i) {
    certificate = std::max(certificate, scratch->priority[sched_factor_[i]]);
  }
  stats.final_residual = certificate;
  stats.converged = certificate < options_.tolerance;
  stats.iterations = (stats.message_updates + nf - 1) / nf;
  stats.sweeps_skipped = (budget - stats.message_updates) / nf;
  MaterializeComponentMarginals(component);
  return stats;
}

LbpResult FlatLbpEngine::Run() {
  const FactorGraph& g = *graph_;
  g.ComputeLogPotentials(*weights_, &potential_);
  PreparePotentials();
  msg_f2v_.assign(g.total_edge_lane_states(), 0.0);
  msg_v2f_.assign(g.total_edge_lane_states(), 0.0);
  belief_.assign(g.total_var_lane_states(), 0.0);
  marginal_.assign(g.total_var_lane_states(), 0.0);

  const size_t nc = component_count_;
  std::vector<ComponentStats> stats(nc);
  const size_t threads =
      std::min(ResolveThreadCount(options_.num_threads), nc);
  auto make_scratch = [&]() {
    Scratch scratch;
    scratch.fresh.resize(g.max_factor_lane_states());
    scratch.aux.resize(g.max_factor_lane_states());
    scratch.states.resize(g.max_arity());
    scratch.pinned.resize(g.max_arity());
    scratch.cards.resize(g.max_arity());
    scratch.strides.resize(g.max_arity());
    scratch.lanes.resize(g.max_arity());
    size_t max_card = 0;
    for (VariableId v = 0; v < g.variable_count(); ++v) {
      max_card = std::max<size_t>(max_card, g.cardinality(v));
    }
    scratch.lane.resize(RoundUpTo(max_card, kLaneDoubles));
    return scratch;
  };
  if (threads <= 1) {
    Scratch scratch = make_scratch();
    for (size_t k = 0; k < nc; ++k) stats[k] = RunComponent(k, &scratch);
  } else {
    std::atomic<size_t> next(0);
    auto worker = [&]() {
      Scratch scratch = make_scratch();
      for (;;) {
        const size_t k = next.fetch_add(1);
        if (k >= nc) return;
        stats[k] = RunComponent(k, &scratch);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  // Merge the per-component records into the sequential-compatible shape.
  LbpResult result;
  result.converged = true;
  for (const ComponentStats& s : stats) {
    result.iterations = std::max(result.iterations, s.iterations);
    result.converged = result.converged && s.converged;
    result.unconverged_components += s.converged ? 0 : 1;
    result.final_residual = std::max(result.final_residual, s.final_residual);
    result.message_updates += s.message_updates;
    result.log_space_updates += s.log_space_updates;
    result.residual_pops += s.residual_pops;
    result.sweeps_skipped += s.sweeps_skipped;
  }

  // Materialize nested marginals from the flat arena.
  marginals_.resize(g.variable_count());
  for (VariableId v = 0; v < g.variable_count(); ++v) {
    const double* begin = marginal_.data() + g.var_lane_offset(v);
    marginals_[v].assign(begin, begin + g.cardinality(v));
  }
  result.marginals = marginals_;
  return result;
}

std::vector<double> FlatLbpEngine::FactorBelief(FactorId f) const {
  const FactorGraph& g = *graph_;
  const size_t edge_begin = g.scope_offset(f);
  const size_t arity = g.scope_offset(f + 1) - edge_begin;
  const size_t assignments =
      g.assignment_offset(f + 1) - g.assignment_offset(f);

  std::vector<double> log_belief(assignments);
  std::vector<size_t> states(arity, 0);
  for (size_t a = 0; a < assignments; ++a) {
    double total = LogPotential(f, a);
    for (size_t slot = 0; slot < arity; ++slot) {
      total += msg_v2f_[g.edge_lane_offset(edge_begin + slot) + states[slot]];
    }
    log_belief[a] = total;
    for (size_t slot = arity; slot-- > 0;) {
      if (++states[slot] < g.cardinality(g.scope_var(edge_begin + slot))) {
        break;
      }
      states[slot] = 0;
    }
  }
  const double lse = LogSumExp(log_belief);
  std::vector<double> belief(assignments, 0.0);
  if (lse == kNegInf) {
    for (double& b : belief) b = 1.0 / static_cast<double>(assignments);
  } else {
    for (size_t a = 0; a < assignments; ++a) {
      belief[a] = std::exp(log_belief[a] - lse);
    }
  }
  return belief;
}

void FlatLbpEngine::AccumulateExpectedFeatures(
    std::vector<double>* expectations) const {
  const FactorGraph& g = *graph_;
  assert(expectations->size() == g.weight_count());
  for (FactorId f = 0; f < g.factor_count(); ++f) {
    const std::vector<double> belief = FactorBelief(f);
    for (size_t a = 0; a < belief.size(); ++a) {
      if (belief[a] <= 0.0) continue;
      g.ForEachFeature(f, a, [&](WeightId weight, double value) {
        (*expectations)[weight] += belief[a] * value;
      });
    }
  }
}

double FlatLbpEngine::LogPartitionEstimate() const {
  const FactorGraph& g = *graph_;
  double log_z = 0.0;
  for (FactorId f = 0; f < g.factor_count(); ++f) {
    const std::vector<double> belief = FactorBelief(f);
    for (size_t a = 0; a < belief.size(); ++a) {
      if (belief[a] <= 0.0) continue;
      log_z += belief[a] * (LogPotential(f, a) - std::log(belief[a]));
    }
  }
  for (VariableId v = 0; v < g.variable_count(); ++v) {
    const double degree =
        static_cast<double>(attach_offset_[v + 1] - attach_offset_[v]);
    const double* m = marginal_.data() + g.var_lane_offset(v);
    double negative_entropy = 0.0;
    for (size_t x = 0; x < g.cardinality(v); ++x) {
      if (m[x] > 0.0) negative_entropy += m[x] * std::log(m[x]);
    }
    log_z += (degree - 1.0) * negative_entropy;
  }
  return log_z;
}

std::vector<size_t> FlatLbpEngine::Decode() const {
  const FactorGraph& g = *graph_;
  std::vector<size_t> states(g.variable_count(), 0);
  for (VariableId v = 0; v < g.variable_count(); ++v) {
    const double* m = marginal_.data() + g.var_lane_offset(v);
    size_t best = 0;
    for (size_t x = 1; x < g.cardinality(v); ++x) {
      if (m[x] > m[best]) best = x;
    }
    states[v] = best;
  }
  return states;
}

}  // namespace jocl
