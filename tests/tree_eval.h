// Tree-walking evaluator over CompiledExpr: the test and bench oracle.
//
// The product executes expressions only as lowered, verified IR
// (src/plan/expr_ir.h). This walker is the independent second
// implementation the IR is held equal to: it evaluates the compiled tree
// node by node, sharing only ApplyBinaryOp with the IR (so the two agree on
// binary operator semantics by construction, but not on lowering, folding,
// jumps or register allocation). The differential tests and the
// reference executor run it, and bench_ingest times it as the "legacy"
// baseline its IR filter speedup is measured against.
//
// Semantics: comparisons involving null values yield false (SQL-ish, without
// tri-state logic); arithmetic on null yields null, which propagates; AND/OR
// short-circuit and always produce a bool.

#ifndef TESTS_TREE_EVAL_H_
#define TESTS_TREE_EVAL_H_

#include <string>

#include "src/plan/expr_eval.h"

namespace scrub {

// Evaluates against a tuple. Events may be null only for sources the
// expression does not touch.
inline Value EvalExpr(const CompiledExpr& expr, const EventTuple& tuple) {
  switch (expr.kind) {
    case CompiledKind::kLiteral:
      return expr.literal;
    case CompiledKind::kField: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      if (event == nullptr) {
        return Value::Null();
      }
      const Value* v = &event->field(static_cast<size_t>(expr.field_index));
      for (const std::string& step : expr.path) {
        if (!v->is_object()) {
          return Value::Null();
        }
        const Value* next = v->AsObject().Find(step);
        if (next == nullptr) {
          return Value::Null();
        }
        v = next;
      }
      return *v;
    }
    case CompiledKind::kRequestId: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      if (event == nullptr) {
        return Value::Null();
      }
      return Value(static_cast<int64_t>(event->request_id()));
    }
    case CompiledKind::kTimestamp: {
      const Event* event = tuple[static_cast<size_t>(expr.source)];
      if (event == nullptr) {
        return Value::Null();
      }
      return Value(static_cast<int64_t>(event->timestamp()));
    }
    case CompiledKind::kUnary: {
      const Value operand = EvalExpr(expr.children[0], tuple);
      if (expr.unary_op == UnaryOp::kNegate) {
        if (!operand.is_numeric()) {
          return Value::Null();
        }
        if (operand.is_int()) {
          return Value(-operand.AsInt());
        }
        return Value(-operand.AsDoubleExact());
      }
      return Value(!(operand.is_bool() && operand.AsBool()));
    }
    case CompiledKind::kBinary: {
      const BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        const Value lhs = EvalExpr(expr.children[0], tuple);
        const bool l = lhs.is_bool() && lhs.AsBool();
        if (op == BinaryOp::kAnd && !l) {
          return Value(false);
        }
        if (op == BinaryOp::kOr && l) {
          return Value(true);
        }
        const Value rhs = EvalExpr(expr.children[1], tuple);
        return Value(rhs.is_bool() && rhs.AsBool());
      }
      return ApplyBinaryOp(op, EvalExpr(expr.children[0], tuple),
                           EvalExpr(expr.children[1], tuple));
    }
    case CompiledKind::kInList: {
      const Value probe = EvalExpr(expr.children[0], tuple);
      if (probe.is_null()) {
        return Value(false);
      }
      for (const Value& member : expr.in_list) {
        if (probe == member) {
          return Value(true);
        }
      }
      return Value(false);
    }
  }
  return Value::Null();
}

// Convenience for single-source evaluation.
inline Value EvalExprSingle(const CompiledExpr& expr, const Event& event) {
  const EventTuple tuple{&event};
  return EvalExpr(expr, tuple);
}

// True iff the expression evaluates to boolean true.
inline bool EvalPredicate(const CompiledExpr& expr, const EventTuple& tuple) {
  const Value v = EvalExpr(expr, tuple);
  return v.is_bool() && v.AsBool();
}

// Kept out of line: a caller's per-event loop pays one call per conjunct,
// the same call boundary the IR's EvalProgramPredicateSingle has, so a bench
// that times the two side by side compares evaluators, not inlining.
[[gnu::noinline]] inline bool EvalPredicateSingle(const CompiledExpr& expr,
                                                  const Event& event) {
  const EventTuple tuple{&event};
  return EvalPredicate(expr, tuple);
}

}  // namespace scrub

#endif  // TESTS_TREE_EVAL_H_
