#include "exec/reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/expr.h"

namespace iolap {

namespace {

// Resolver over fully computed upstream outputs: every lookup returns the
// exact value; trials mirror the main value; ranges are never consulted
// (the reference evaluator does no classification).
class ExactResolver final : public AggLookupResolver {
 public:
  void Set(int block, int num_keys, const Table& output) {
    Relation& rel = relations_[block];
    rel.num_keys = num_keys;
    for (const Row& row : output.rows()) {
      Row key(row.begin(), row.begin() + num_keys);
      rel.rows[std::move(key)] = row;
    }
  }

  Value Lookup(int block, int col, const Row& key) const override {
    auto rel_it = relations_.find(block);
    if (rel_it == relations_.end()) return Value::Null();
    auto it = rel_it->second.rows.find(key);
    if (it == rel_it->second.rows.end()) return Value::Null();
    return static_cast<size_t>(col) < it->second.size() ? it->second[col]
                                                        : Value::Null();
  }

  Value LookupTrial(int block, int col, const Row& key, int) const override {
    return Lookup(block, col, key);
  }

  Interval LookupRange(int block, int col, const Row& key) const override {
    const Value v = Lookup(block, col, key);
    if (v.is_numeric()) return Interval::Point(v.AsDouble());
    return Interval::Unbounded();
  }

 private:
  struct Relation {
    int num_keys = 0;
    std::unordered_map<Row, Row, RowHash, RowEq> rows;
  };
  std::map<int, Relation> relations_;
};

struct RefRow {
  Row values;
  bool from_stream = false;
};

}  // namespace

Result<Table> EvaluateReference(const QueryPlan& plan, const Catalog& catalog,
                                const std::vector<Row>& streamed_rows,
                                double scale) {
  ExactResolver resolver;
  EvalContext ctx;
  ctx.resolver = &resolver;

  std::vector<Table> block_outputs(plan.blocks.size());

  for (const Block& block : plan.blocks) {
    // Materialize each input relation.
    std::vector<std::vector<RefRow>> inputs(block.inputs.size());
    bool scans_stream = false;
    for (size_t k = 0; k < block.inputs.size(); ++k) {
      const BlockInput& input = block.inputs[k];
      if (input.kind == BlockInput::Kind::kBaseTable) {
        if (input.streamed) {
          scans_stream = true;
          for (const Row& r : streamed_rows) {
            inputs[k].push_back(RefRow{r, true});
          }
        } else {
          IOLAP_ASSIGN_OR_RETURN(const TableEntry* entry,
                                 catalog.Find(input.table_name));
          for (const Row& r : entry->table->rows()) {
            inputs[k].push_back(RefRow{r, false});
          }
        }
      } else {
        for (const Row& r : block_outputs[input.source_block].rows()) {
          inputs[k].push_back(RefRow{r, false});
        }
      }
    }

    // Left-deep hash joins.
    std::vector<RefRow> joined = std::move(inputs[0]);
    for (size_t k = 1; k < block.inputs.size(); ++k) {
      const BlockInput& input = block.inputs[k];
      std::unordered_map<Row, std::vector<const RefRow*>, RowHash, RowEq> index;
      for (const RefRow& row : inputs[k]) {
        Row key;
        key.reserve(input.input_key_cols.size());
        for (int c : input.input_key_cols) key.push_back(row.values[c]);
        index[std::move(key)].push_back(&row);
      }
      std::vector<RefRow> next;
      for (const RefRow& left : joined) {
        Row key;
        key.reserve(input.prefix_key_cols.size());
        for (int c : input.prefix_key_cols) key.push_back(left.values[c]);
        auto it = index.find(key);
        if (it == index.end()) continue;
        for (const RefRow* right : it->second) {
          RefRow merged;
          merged.values = left.values;
          merged.values.insert(merged.values.end(), right->values.begin(),
                               right->values.end());
          merged.from_stream = left.from_stream || right->from_stream;
          next.push_back(std::move(merged));
        }
      }
      joined = std::move(next);
    }

    // Filter.
    if (block.filter != nullptr) {
      std::vector<RefRow> kept;
      for (RefRow& row : joined) {
        if (block.filter->Eval(row.values, ctx).IsTruthy()) {
          kept.push_back(std::move(row));
        }
      }
      joined = std::move(kept);
    }

    Table output(block.output_schema);
    if (block.has_aggregate()) {
      const double effective_scale = scans_stream ? scale : 1.0;
      std::map<Row, std::vector<std::unique_ptr<AggAccumulator>>> groups;
      for (const RefRow& row : joined) {
        Row key;
        key.reserve(block.group_by.size());
        for (const ExprPtr& g : block.group_by) {
          key.push_back(g->Eval(row.values, ctx));
        }
        auto [it, inserted] = groups.try_emplace(std::move(key));
        if (inserted) {
          for (const AggSpec& spec : block.aggs) {
            it->second.push_back(spec.fn->new_accumulator());
          }
        }
        for (size_t a = 0; a < block.aggs.size(); ++a) {
          it->second[a]->Add(block.aggs[a].arg->Eval(row.values, ctx), 1.0);
        }
      }
      for (const auto& [key, accs] : groups) {
        Row out = key;
        for (const auto& acc : accs) {
          out.push_back(acc->Result(effective_scale));
        }
        output.AddRow(std::move(out));
      }
    } else {
      for (const RefRow& row : joined) {
        Row out;
        out.reserve(block.projections.size());
        for (const ExprPtr& p : block.projections) {
          out.push_back(p->Eval(row.values, ctx));
        }
        output.AddRow(std::move(out));
      }
      std::sort(output.mutable_rows().begin(), output.mutable_rows().end(),
                [](const Row& a, const Row& b) {
                  const size_t n = std::min(a.size(), b.size());
                  for (size_t i = 0; i < n; ++i) {
                    const int c = a[i].Compare(b[i]);
                    if (c != 0) return c < 0;
                  }
                  return a.size() < b.size();
                });
    }
    block_outputs[block.id] = output;
    if (block.has_aggregate()) {
      resolver.Set(block.id, static_cast<int>(block.group_by.size()), output);
    }
  }
  return block_outputs.back();
}

}  // namespace iolap
