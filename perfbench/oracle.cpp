#include "oracle.h"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common.h"
#include "term/op.h"

namespace perfbench
{

using isaria::KernelSpec;
using isaria::NodeId;
using isaria::Op;
using isaria::RecExpr;

namespace
{

const std::vector<double> *
findArray(const ArrayMap &inputs, const std::string &name)
{
    for (const auto &[n, cells] : inputs)
        if (n == name)
            return &cells;
    return nullptr;
}

bool
close(double want, double got, double scale)
{
    return std::fabs(want - got) <=
           kOracleTolerance * std::max({1.0, scale, std::fabs(want)});
}

std::string
compareAll(const std::vector<double> &want, const std::vector<double> &got)
{
    if (got.size() < want.size())
        return "program produced " + std::to_string(got.size()) +
               " outputs, expected " + std::to_string(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (!close(want[i], got[i], 0)) {
            std::ostringstream out;
            out << "output " << i << " is " << got[i] << ", expected "
                << want[i];
            return out.str();
        }
    }
    return {};
}

std::vector<double>
conv2d(const KernelSpec &s, const std::vector<double> &in,
       const std::vector<double> &filter)
{
    int rows = s.p0, cols = s.p1, kr = s.p2, kc = s.p3;
    int ocols = cols + kc - 1;
    std::vector<double> out(static_cast<std::size_t>((rows + kr - 1) * ocols));
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            for (int i = 0; i < kr; ++i)
                for (int j = 0; j < kc; ++j)
                    out[(r + i) * ocols + (c + j)] +=
                        in[r * cols + c] * filter[i * kc + j];
    return out;
}

std::vector<double>
matmul(const KernelSpec &s, const std::vector<double> &a,
       const std::vector<double> &b)
{
    int n = s.p0, m = s.p1, k = s.p2;
    std::vector<double> out(static_cast<std::size_t>(n * k));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < k; ++j)
            for (int l = 0; l < m; ++l)
                out[i * k + j] += a[i * m + l] * b[l * k + j];
    return out;
}

std::vector<double>
hamilton(const std::vector<double> &p, const std::vector<double> &q)
{
    return {
        p[0] * q[0] - p[1] * q[1] - p[2] * q[2] - p[3] * q[3],
        p[0] * q[1] + p[1] * q[0] + p[2] * q[3] - p[3] * q[2],
        p[0] * q[2] - p[1] * q[3] + p[2] * q[0] + p[3] * q[1],
        p[0] * q[3] + p[1] * q[2] - p[2] * q[1] + p[3] * q[0],
    };
}

/** QR by its defining properties: Q^T Q = I, R upper-triangular,
 *  Q R = A, each within kOracleTolerance relative to max |A|. */
std::string
checkQr(int n, const std::vector<double> &a, const std::vector<double> &out)
{
    if (out.size() < static_cast<std::size_t>(2 * n * n))
        return "QR produced too few outputs";
    const double *q = out.data();
    const double *r = out.data() + n * n;
    double scale = 0;
    for (double x : a)
        scale = std::max(scale, std::fabs(x));
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            double qtq = 0, qr = 0;
            for (int k = 0; k < n; ++k) {
                qtq += q[k * n + i] * q[k * n + j];
                qr += q[i * n + k] * r[k * n + j];
            }
            if (!close(i == j ? 1.0 : 0.0, qtq, 1.0))
                return "Q^T Q is not the identity at (" + std::to_string(i) +
                       "," + std::to_string(j) + ")";
            if (i > j && !close(0.0, r[i * n + j], scale))
                return "R is not upper-triangular at (" +
                       std::to_string(i) + "," + std::to_string(j) + ")";
            if (!close(a[i * n + j], qr, scale))
                return "QR differs from A at (" + std::to_string(i) + "," +
                       std::to_string(j) + ")";
        }
    }
    return {};
}

// ---------------------------------------------------------------------
// Vector-DSL evaluator for rule soundness.

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

struct Val
{
    bool vector = false;
    std::vector<double> lanes;
};

Val
scalar(double x)
{
    return Val{false, {x}};
}

Val
undefinedLike(std::size_t lanes, bool vector)
{
    return Val{vector, std::vector<double>(std::max<std::size_t>(lanes, 1),
                                           kUndefined)};
}

double
sgn(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : 0.0;
}

double
dslDiv(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

double
dslSqrt(double a)
{
    return a < 0 ? kUndefined : std::sqrt(a);
}

struct Evaluator
{
    const RecExpr &expr;
    /** Wildcard id -> value. */
    const std::map<std::int64_t, Val> &env;
    std::vector<Val> memo;
    std::vector<bool> done;

    Evaluator(const RecExpr &e, const std::map<std::int64_t, Val> &en)
        : expr(e), env(en), memo(e.size()), done(e.size(), false)
    {}

    const Val &
    eval(NodeId id)
    {
        if (!done[id]) {
            memo[id] = compute(id);
            done[id] = true;
        }
        return memo[id];
    }

    Val
    scalarArg(NodeId id)
    {
        const Val &v = eval(id);
        return v.vector ? scalar(kUndefined) : v;
    }

    Val
    vectorArg(NodeId id)
    {
        const Val &v = eval(id);
        return v.vector ? v : undefinedLike(v.lanes.size(), true);
    }

    template <typename Fn>
    Val
    lanes(const std::vector<Val> &args, Fn fn)
    {
        std::size_t w = args[0].lanes.size();
        for (const Val &a : args)
            if (a.lanes.size() != w)
                return undefinedLike(w, true);
        Val out{true, std::vector<double>(w)};
        for (std::size_t l = 0; l < w; ++l) {
            std::vector<double> xs;
            for (const Val &a : args)
                xs.push_back(a.lanes[l]);
            out.lanes[l] = fn(xs);
        }
        return out;
    }

    Val
    compute(NodeId id)
    {
        const auto &n = expr.node(id);
        const auto &c = n.children;
        auto s = [&](int i) { return scalarArg(c[i]).lanes[0]; };
        auto v = [&](int i) { return vectorArg(c[i]); };
        switch (n.op) {
          case Op::Const: return scalar(static_cast<double>(n.payload));
          case Op::Symbol:
          case Op::Get:
          case Op::Wildcard: {
            std::int64_t key = n.op == Op::Wildcard ? n.payload
                                                    : -1 - n.payload;
            auto it = env.find(key);
            return it == env.end() ? scalar(kUndefined) : it->second;
          }
          case Op::Add: return scalar(s(0) + s(1));
          case Op::Sub: return scalar(s(0) - s(1));
          case Op::Mul: return scalar(s(0) * s(1));
          case Op::Div: return scalar(dslDiv(s(0), s(1)));
          case Op::Neg: return scalar(-s(0));
          case Op::Sgn: return scalar(sgn(s(0)));
          case Op::Sqrt: return scalar(dslSqrt(s(0)));
          case Op::MulSub: return scalar(s(0) - s(1) * s(2));
          case Op::SqrtSgn: return scalar(dslSqrt(s(0)) * sgn(-s(1)));
          case Op::Vec: {
            Val out{true, {}};
            for (std::size_t i = 0; i < c.size(); ++i)
                out.lanes.push_back(s(static_cast<int>(i)));
            return out;
          }
          case Op::Concat: {
            Val a = v(0), b = v(1);
            a.lanes.insert(a.lanes.end(), b.lanes.begin(), b.lanes.end());
            return a;
          }
          case Op::VecAdd:
            return lanes({v(0), v(1)}, [](auto x) { return x[0] + x[1]; });
          case Op::VecMinus:
            return lanes({v(0), v(1)}, [](auto x) { return x[0] - x[1]; });
          case Op::VecMul:
            return lanes({v(0), v(1)}, [](auto x) { return x[0] * x[1]; });
          case Op::VecDiv:
            return lanes({v(0), v(1)},
                         [](auto x) { return dslDiv(x[0], x[1]); });
          case Op::VecNeg:
            return lanes({v(0)}, [](auto x) { return -x[0]; });
          case Op::VecSgn:
            return lanes({v(0)}, [](auto x) { return sgn(x[0]); });
          case Op::VecSqrt:
            return lanes({v(0)}, [](auto x) { return dslSqrt(x[0]); });
          case Op::VecMAC:
            return lanes({v(0), v(1), v(2)},
                         [](auto x) { return x[0] + x[1] * x[2]; });
          case Op::VecMulSub:
            return lanes({v(0), v(1), v(2)},
                         [](auto x) { return x[0] - x[1] * x[2]; });
          case Op::VecSqrtSgn:
            return lanes({v(0), v(1)}, [](auto x) {
                return dslSqrt(x[0]) * sgn(-x[1]);
            });
          default:
            return scalar(kUndefined);
        }
    }
};

/** Leaves (wildcards, symbols, array elements) of @p expr with
 *  whether any occurrence sits in vector position. */
void
collectLeaves(const RecExpr &expr, std::map<std::int64_t, bool> &leaves)
{
    std::vector<isaria::Sort> sorts = expr.inferSorts();
    for (std::size_t i = 0; i < expr.size(); ++i) {
        const auto &n = expr.node(static_cast<NodeId>(i));
        std::int64_t key;
        if (n.op == Op::Wildcard)
            key = n.payload;
        else if (n.op == Op::Symbol || n.op == Op::Get)
            key = -1 - n.payload;
        else
            continue;
        leaves[key] = leaves[key] || sorts[i] == isaria::Sort::Vector;
    }
}

int
vecWidth(const RecExpr &expr)
{
    for (std::size_t i = 0; i < expr.size(); ++i) {
        const auto &n = expr.node(static_cast<NodeId>(i));
        if (n.op == Op::Vec)
            return static_cast<int>(n.children.size());
    }
    return 0;
}

std::string
render(const Val &v)
{
    std::ostringstream out;
    out << (v.vector ? "[" : "");
    for (std::size_t i = 0; i < v.lanes.size(); ++i)
        out << (i ? " " : "") << v.lanes[i];
    out << (v.vector ? "]" : "");
    return out.str();
}

} // namespace

std::string
checkKernelOutputs(const KernelSpec &spec, const ArrayMap &inputs,
                   const std::vector<double> &outputs)
{
    auto in = [&](const char *name) -> const std::vector<double> & {
        static const std::vector<double> empty;
        const std::vector<double> *found = findArray(inputs, name);
        return found ? *found : empty;
    };
    switch (spec.family) {
      case KernelSpec::Family::Conv2D:
        return compareAll(conv2d(spec, in("I"), in("F")), outputs);
      case KernelSpec::Family::MatMul:
        return compareAll(matmul(spec, in("A"), in("B")), outputs);
      case KernelSpec::Family::QProd:
        return compareAll(hamilton(in("P"), in("Q")), outputs);
      case KernelSpec::Family::QrD:
        return checkQr(spec.p0, in("A"), outputs);
    }
    return "unknown kernel family";
}

RuleCheck
checkRule(const isaria::Rule &rule, int width, std::uint64_t seed,
          int samples)
{
    std::map<std::int64_t, bool> leaves;
    collectLeaves(rule.lhs, leaves);
    collectLeaves(rule.rhs, leaves);
    int w = vecWidth(rule.lhs);
    if (w == 0)
        w = vecWidth(rule.rhs);
    if (w == 0)
        w = width;

    // Seed-independent edge environments first, then seeded draws.
    const std::vector<double> edges[] = {
        {0}, {1}, {-1}, {0, 1, -1, 2}, {2, -3, 0, 5, -1}};
    int total = static_cast<int>(std::size(edges)) + samples;
    SplitMix rng{seed ^ std::hash<std::string>{}(rule.toString())};

    RuleCheck out;
    for (int s = 0; s < total; ++s) {
        std::map<std::int64_t, Val> env;
        std::size_t cursor = 0;
        auto draw = [&]() {
            if (s < static_cast<int>(std::size(edges))) {
                const std::vector<double> &pattern = edges[s];
                return pattern[cursor++ % pattern.size()];
            }
            return rng.uniform(-4.0, 4.0);
        };
        for (const auto &[key, isVector] : leaves) {
            Val v{isVector, {}};
            for (int l = 0; l < (isVector ? w : 1); ++l)
                v.lanes.push_back(draw());
            env[key] = std::move(v);
        }
        Evaluator lhs(rule.lhs, env), rhs(rule.rhs, env);
        const Val &a = lhs.eval(rule.lhs.rootId());
        const Val &b = rhs.eval(rule.rhs.rootId());
        bool agree = a.lanes.size() == b.lanes.size();
        for (std::size_t l = 0; agree && l < a.lanes.size(); ++l) {
            if (std::isnan(a.lanes[l]) || std::isnan(b.lanes[l]))
                continue; // undefined lane (sqrt of a negative)
            agree = close(a.lanes[l], b.lanes[l], 0);
        }
        if (!agree) {
            std::ostringstream why;
            why << "sample " << s << ": lhs " << render(a) << " vs rhs "
                << render(b);
            out.sound = false;
            out.counterexample = why.str();
            return out;
        }
    }
    return out;
}

} // namespace perfbench
