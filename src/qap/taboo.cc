#include "qap/taboo.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"

namespace mnoc::qap {

namespace {

/** True when @p m equals its transpose bit for bit. */
bool
exactlySymmetric(const FlowMatrix &m)
{
    std::size_t n = m.rows();
    const double *a = m.data().data();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            if (std::bit_cast<std::uint64_t>(a[i * n + j]) !=
                std::bit_cast<std::uint64_t>(a[j * n + i]))
                return false;
    return true;
}

/** Row-major transpose of the n x n matrix @p a. */
std::vector<double>
transposed(const double *a, std::size_t n)
{
    std::vector<double> t(n * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            t[j * n + i] = a[i * n + j];
    return t;
}

/** Exchange rows u and v, then columns u and v, of the n x n @p a. */
void
swapRowsAndCols(std::vector<double> &a, std::size_t n, std::size_t u,
                std::size_t v)
{
    std::swap_ranges(a.begin() + static_cast<std::ptrdiff_t>(u * n),
                     a.begin() + static_cast<std::ptrdiff_t>(u * n + n),
                     a.begin() + static_cast<std::ptrdiff_t>(v * n));
    for (std::size_t r = 0; r < n; ++r)
        std::swap(a[r * n + u], a[r * n + v]);
}

/**
 * Delta table maintained across moves.  For a symmetric instance with
 * zero diagonals the delta of a pair (r, s) disjoint from the applied
 * swap (u, v) updates in O(1):
 *
 *   delta'(r,s) = delta(r,s)
 *     + 2 * (f(r,u) - f(r,v) + f(s,v) - f(s,u))
 *         * (d(p(s),p(v)) - d(p(s),p(u)) + d(p(r),p(u)) - d(p(r),p(v)))
 *
 * with p taken *before* the swap (Taillard 1991).  Pairs touching u or
 * v are recomputed in full, with the bits QapInstance::swapDelta gives
 * (see sweep()).
 */
class DeltaTable
{
  public:
    DeltaTable(const QapInstance &inst, const Permutation &perm)
        : n_(static_cast<std::size_t>(inst.size())),
          f_(inst.flow().data().data()), p_(n_ * n_),
          table_(n_ * n_, 0.0), accA_(n_), accB_(n_), spare_(n_)
    {
        const double *d = inst.dist().data().data();
        for (std::size_t x = 0; x < n_; ++x)
            for (std::size_t y = 0; y < n_; ++y)
                p_[x * n_ + y] =
                    d[static_cast<std::size_t>(perm[x]) * n_ +
                      static_cast<std::size_t>(perm[y])];
        if (!exactlySymmetric(inst.flow()))
            fCols_ = transposed(f_, n_);
        if (!exactlySymmetric(inst.dist()))
            pCols_ = transposed(p_.data(), n_);
        fc_ = fCols_.empty() ? f_ : fCols_.data();

        // Rows u and u + 1 per sweep, each pair (r, k > r) once.
        for (std::size_t u = 0; u + 1 < n_; u += 2) {
            sweep(u, u + 1, u + 1);
            for (std::size_t k = u + 1; k < n_; ++k)
                table_[u * n_ + k] = withTail(accA_[k], u, k);
            for (std::size_t k = u + 2; k < n_; ++k)
                table_[(u + 1) * n_ + k] = withTail(accB_[k], u + 1, k);
        }
    }

    /** Row @p r of the table: delta(r, s) at index s > r. */
    const double *row(int r) const { return &table_[idx(r) * n_]; }

    /** Refresh the table after swapping facilities u < v; @p perm is
     *  the permutation before the swap is applied. */
    void
    applySwap(Permutation &perm, int u_in, int v_in)
    {
        std::size_t u = idx(u_in);
        std::size_t v = idx(v_in);
        // Columns u and v of f and of the permuted distances, before
        // the swap: f(k,u) and d(p(k),p(u)), read as contiguous rows.
        const double *fu = fc_ + u * n_;
        const double *fv = fc_ + v * n_;
        const double *dpu = pc() + u * n_;
        const double *dpv = pc() + v * n_;
        for (std::size_t r = 0; r < n_; ++r) {
            if (r == u || r == v)
                continue;
            double fr = fu[r] - fv[r];
            double dr = dpu[r] - dpv[r];
            double *row = &table_[r * n_];
            // Partners s > r, less u and v.
            std::size_t ranges[3][2] = {{r + 1, u},
                                        {std::max(r + 1, u + 1), v},
                                        {std::max(r + 1, v + 1), n_}};
            for (const auto &range : ranges)
                for (std::size_t s = range[0]; s < range[1]; ++s)
                    row[s] += 2.0 * (fr + fv[s] - fu[s]) *
                              (dpv[s] - dpu[s] + dr);
        }

        std::swap(perm[u], perm[v]);
        swapRowsAndCols(p_, n_, u, v);
        if (!pCols_.empty())
            swapRowsAndCols(pCols_, n_, u, v);

        // Pairs involving u or v are recomputed directly.
        sweep(u, v, 0);
        for (std::size_t k = 0; k < n_; ++k) {
            if (k != u)
                table_[std::min(k, u) * n_ + std::max(k, u)] =
                    withTail(accA_[k], std::min(k, u), std::max(k, u));
            if (k != v && k != u)
                table_[std::min(k, v) * n_ + std::max(k, v)] =
                    withTail(accB_[k], std::min(k, v), std::max(k, v));
        }
    }

  private:
    static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

    /** Column view of the permuted distances: row x holds p(., x). */
    const double *pc() const
    {
        return pCols_.empty() ? p_.data() : pCols_.data();
    }

    /**
     * For anchors a and b and every partner k >= @p k_begin, sum
     * swapDelta's loop terms of the pair (a, k) into accA_[k] and of
     * (b, k) into accB_[k]: the same two terms per j, in the same
     * ascending-j order, each pair a lane of its own.  A term's two
     * factors only change sign when the pair is read as (k, a) instead
     * of (min, max), so the product keeps its bits (a zero may flip its
     * sign, which a sum started at +0 cannot see) and so does the sum.
     * Exactly symmetric matrices make the two terms equal; each is then
     * computed once and added twice (acc + 2t would round differently).
     * Lanes k == a and k == b are not pairs and hold garbage.
     */
    void
    sweep(std::size_t a, std::size_t b, std::size_t k_begin)
    {
        std::fill_n(accA_.data() + k_begin, n_ - k_begin, 0.0);
        std::fill_n(accB_.data() + k_begin, n_ - k_begin, 0.0);
        bool shared = fCols_.empty() && pCols_.empty();
        for (std::size_t j = 0; j < n_; ++j) {
            // An anchor's own j adds no term: its lanes for this step
            // go to spare_, which is never read.
            double *acc_a = j == a ? spare_.data() : accA_.data();
            double *acc_b = j == b ? spare_.data() : accB_.data();
            const double *f_j = f_ + j * n_;    // f(j, k)
            const double *p_j = &p_[j * n_];    // p(j, k)
            const double *fc_j = fc_ + j * n_;  // f(k, j)
            const double *pc_j = pc() + j * n_; // p(k, j)
            double f_aj = f_[a * n_ + j], p_aj = p_[a * n_ + j];
            double f_bj = f_[b * n_ + j], p_bj = p_[b * n_ + j];
            double f_ja = f_j[a], p_ja = p_j[a];
            double f_jb = f_j[b], p_jb = p_j[b];
            // j ranges over the facilities outside the pair, so lane
            // k == j takes no term at this step.
            std::size_t ranges[2][2] = {{k_begin, std::max(k_begin, j)},
                                        {std::max(k_begin, j + 1), n_}};
            for (const auto &range : ranges) {
                if (shared) {
                    for (std::size_t k = range[0]; k < range[1]; ++k) {
                        double t_a = (f_aj - f_j[k]) * (p_j[k] - p_aj);
                        double t_b = (f_bj - f_j[k]) * (p_j[k] - p_bj);
                        acc_a[k] += t_a;
                        acc_a[k] += t_a;
                        acc_b[k] += t_b;
                        acc_b[k] += t_b;
                    }
                } else {
                    for (std::size_t k = range[0]; k < range[1]; ++k) {
                        acc_a[k] += (f_aj - fc_j[k]) * (pc_j[k] - p_aj);
                        acc_a[k] += (f_ja - f_j[k]) * (p_j[k] - p_ja);
                        acc_b[k] += (f_bj - fc_j[k]) * (pc_j[k] - p_bj);
                        acc_b[k] += (f_jb - f_j[k]) * (p_j[k] - p_jb);
                    }
                }
            }
        }
    }

    /** swapDelta's four-term tail of the pair lo < hi, added to its
     *  loop @p sum in swapDelta's order. */
    double
    withTail(double sum, std::size_t lo, std::size_t hi) const
    {
        double p_ll = p_[lo * n_ + lo], p_lh = p_[lo * n_ + hi];
        double p_hl = p_[hi * n_ + lo], p_hh = p_[hi * n_ + hi];
        sum += f_[lo * n_ + hi] * (p_hl - p_lh);
        sum += f_[hi * n_ + lo] * (p_lh - p_hl);
        sum += f_[lo * n_ + lo] * (p_hh - p_ll);
        sum += f_[hi * n_ + hi] * (p_ll - p_hh);
        return sum;
    }

    std::size_t n_;
    /** Flow, row-major, and its column view (f itself when exactly
     *  symmetric, else the transposed copy fCols_). */
    const double *f_;
    const double *fc_ = nullptr;
    std::vector<double> fCols_;
    /** Distances permuted to facility order: p(x, y) = d(perm[x],
     *  perm[y]), kept current by swapRowsAndCols; pCols_ is its
     *  transpose when the distances are not exactly symmetric. */
    std::vector<double> p_;
    std::vector<double> pCols_;
    std::vector<double> table_;
    /** Per-pair lane sums of sweep()'s two anchors, and the sink for
     *  an anchor's own j; allocated once. */
    std::vector<double> accA_, accB_, spare_;
};

} // namespace

QapResult
tabooSearch(const QapInstance &instance, const Permutation &start,
            const TabooParams &params)
{
    fatalIf(!instance.isSymmetric(),
            "taboo search requires a symmetric QAP instance "
            "(symmetrize the flow matrix first)");
    instance.checkPermutation(start);

    int n = instance.size();
    Prng rng(params.seed);
    Permutation perm = start;
    Permutation best_perm = perm;
    double cost = instance.cost(perm);
    double best_cost = cost;

    DeltaTable deltas(instance, perm);

    // tabuUntil(facility, location): iteration until which placing the
    // facility back on that location is forbidden.
    std::vector<long long> tabu_until(
        static_cast<std::size_t>(n) * n, -1);
    auto tabu = [&](int fac, int loc) -> long long & {
        return tabu_until[static_cast<std::size_t>(fac) * n + loc];
    };

    auto draw_tenure = [&]() {
        double lo = params.minTenureFactor * n;
        double hi = params.maxTenureFactor * n;
        return static_cast<long long>(lo + rng.uniform() * (hi - lo)) + 1;
    };
    long long tenure = draw_tenure();

    // Long-term diversification (Taillard's aspiration function u):
    // a pair untouched for this long is forced regardless of delta.
    const long long force_after =
        5LL * static_cast<long long>(n) * n;
    std::vector<long long> last_used(
        static_cast<std::size_t>(n) * n, 0);
    auto used = [&](int u, int v) -> long long & {
        return last_used[static_cast<std::size_t>(u) * n + v];
    };

    QapResult result;
    for (long long iter = 0; iter < params.iterations; ++iter) {
        if (params.tenureRedrawPeriod > 0 &&
            iter % params.tenureRedrawPeriod == 0) {
            tenure = draw_tenure();
        }

        int best_u = -1;
        int best_v = -1;
        double best_delta = std::numeric_limits<double>::infinity();
        bool best_was_tabu = false;
        bool forced = false;

        // No pair can have been idle longer than force_after before
        // iteration force_after + 1.
        bool may_force = iter > force_after;
        for (int u = 0; u < n && !forced; ++u) {
            const double *row = deltas.row(u);
            for (int v = u + 1; v < n; ++v) {
                double delta = row[v];
                // Long-term diversification: force a pair that has
                // been idle too long.
                if (may_force && iter - used(u, v) > force_after) {
                    best_u = u;
                    best_v = v;
                    best_delta = delta;
                    forced = true;
                    break;
                }
                // Both acceptance tests below need this; the taboo
                // status only matters for a pair that passes it.
                if (!(delta < best_delta + 1e-15))
                    continue;
                bool is_tabu = tabu(u, perm[v]) > iter &&
                               tabu(v, perm[u]) > iter;
                bool aspired = cost + delta < best_cost - 1e-12;
                if (is_tabu && !aspired)
                    continue;
                // Prefer non-taboo moves at equal delta.
                if (delta < best_delta - 1e-15 ||
                    (delta < best_delta + 1e-15 && best_was_tabu &&
                     !is_tabu)) {
                    best_delta = delta;
                    best_u = u;
                    best_v = v;
                    best_was_tabu = is_tabu;
                }
            }
        }

        if (best_u < 0) {
            // Everything taboo and nothing aspires: age the list by one
            // iteration and retry.
            continue;
        }

        // Forbid undoing the move: each facility may not return to the
        // location it is leaving.
        tabu(best_u, perm[best_u]) = iter + tenure;
        tabu(best_v, perm[best_v]) = iter + tenure;
        used(best_u, best_v) = iter;

        deltas.applySwap(perm, best_u, best_v);
        cost += best_delta;
        ++result.iterations;

        if (cost < best_cost) {
            best_cost = cost;
            best_perm = perm;
        }
    }

    result.perm = best_perm;
    result.cost = best_cost;
    return result;
}

} // namespace mnoc::qap
