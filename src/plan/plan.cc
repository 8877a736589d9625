#include "plan/plan.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace autoview {

namespace {

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace

void AppendUniqueColumns(const std::vector<OutputColumn>& cols,
                         std::vector<OutputColumn>* out) {
  // Outputs are narrow, so a scan of the names so far beats hashing them.
  const auto taken = [out](const std::string& name) {
    for (const OutputColumn& c : *out) {
      if (c.name == name) return true;
    }
    return false;
  };
  for (const OutputColumn& col : cols) {
    if (!taken(col.name)) {
      out->push_back(col);
      continue;
    }
    std::string name;
    int suffix = 2;
    do {
      name = col.name + "_" + std::to_string(suffix++);
    } while (taken(name));
    out->push_back({std::move(name), col.type});
  }
}

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kTableScan:
      return "Scan";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kJoin:
      return "Join";
    case PlanOp::kAggregate:
      return "Aggregate";
    case PlanOp::kSort:
      return "Sort";
    case PlanOp::kLimit:
      return "Limit";
    case PlanOp::kDistinct:
      return "Distinct";
  }
  return "?";
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kAvg:
      return "AVG";
  }
  return "?";
}

std::shared_ptr<PlanNode> PlanNode::New(PlanOp op, PlanNodePtr left,
                                        PlanNodePtr right) {
  auto node = std::make_shared<PlanNode>(Key());
  node->op_ = op;
  if (!left) return node;
  node->children_.reserve(right ? 2 : 1);
  for (PlanNodePtr* child : {&left, &right}) {
    if (!*child) continue;
    node->num_operators_ += (*child)->num_operators_;
    node->height_ = std::max(node->height_, (*child)->height_ + 1);
    node->children_.push_back(std::move(*child));
  }
  return node;
}

Result<PlanNodePtr> PlanNode::MakeScan(const Catalog& catalog,
                                       const std::string& table) {
  // The catalog's shared column list, not GetTable()'s pointer: the
  // rewriter builds view scans without a pin, and the list outlives the
  // view's RemoveTable() if it is evicted meanwhile.
  AV_ASSIGN_OR_RETURN(SharedColumns columns, catalog.GetColumns(table));
  auto node = New(PlanOp::kTableScan);
  node->table_ = table;
  node->output_ = std::move(columns);
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeFilter(PlanNodePtr child, ExprPtr predicate) {
  if (!child || !predicate) {
    return Status::InvalidArgument("filter requires a child and a predicate");
  }
  AV_RETURN_NOT_OK(CheckColumnBounds(*predicate, child->output_->size()));
  auto node = New(PlanOp::kFilter, std::move(child));
  node->predicate_ = std::move(predicate);
  node->output_ = node->children_[0]->output_;
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeProject(PlanNodePtr child,
                                          std::vector<ProjectItem> items) {
  if (!child || items.empty()) {
    return Status::InvalidArgument("project requires a child and items");
  }
  const size_t width = child->output_->size();
  auto output = std::make_shared<std::vector<OutputColumn>>();
  output->reserve(items.size());
  for (const auto& item : items) {
    if (!item.expr) return Status::InvalidArgument("null projection expr");
    AV_RETURN_NOT_OK(CheckColumnBounds(*item.expr, width));
    ColumnType type = item.expr->kind() == ExprKind::kColumn
                          ? item.expr->column_type()
                          : item.expr->literal().type();
    output->push_back({item.name, type});
  }
  auto node = New(PlanOp::kProject, std::move(child));
  node->projections_ = std::move(items);
  node->output_ = std::move(output);
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeJoin(PlanNodePtr left, PlanNodePtr right,
                                       ExprPtr condition) {
  if (!left || !right || !condition) {
    return Status::InvalidArgument("join requires two children and an ON");
  }
  const size_t width = left->output_->size() + right->output_->size();
  AV_RETURN_NOT_OK(CheckColumnBounds(*condition, width));
  // Concatenate output schemas; disambiguate duplicated names.
  auto output = std::make_shared<std::vector<OutputColumn>>();
  output->reserve(width);
  AppendUniqueColumns(*left->output_, output.get());
  AppendUniqueColumns(*right->output_, output.get());
  auto node = New(PlanOp::kJoin, std::move(left), std::move(right));
  node->predicate_ = std::move(condition);
  node->output_ = std::move(output);
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeAggregate(PlanNodePtr child,
                                            std::vector<size_t> group_by,
                                            std::vector<AggItem> aggregates) {
  if (!child) return Status::InvalidArgument("aggregate requires a child");
  if (group_by.empty() && aggregates.empty()) {
    return Status::InvalidArgument("aggregate with no groups and no funcs");
  }
  const std::vector<OutputColumn>& in = *child->output_;
  const size_t width = in.size();
  auto output = std::make_shared<std::vector<OutputColumn>>();
  output->reserve(group_by.size() + aggregates.size());
  for (size_t g : group_by) {
    if (g >= width) {
      return Status::InvalidArgument("group-by column out of range");
    }
    output->push_back(in[g]);
  }
  for (auto& agg : aggregates) {
    ColumnType type = ColumnType::kInt64;
    if (agg.kind != AggKind::kCountStar) {
      if (!agg.input_column || *agg.input_column >= width) {
        return Status::InvalidArgument("aggregate input column out of range");
      }
      agg.input_name = in[*agg.input_column].name;
      const ColumnType in_type = in[*agg.input_column].type;
      switch (agg.kind) {
        case AggKind::kCount:
          type = ColumnType::kInt64;
          break;
        case AggKind::kAvg:
          type = ColumnType::kDouble;
          break;
        default:
          type = in_type;
      }
      if ((agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) &&
          in_type == ColumnType::kString) {
        return Status::TypeError("SUM/AVG over a string column");
      }
    }
    if (agg.name.empty()) {
      agg.name = ToLower(AggKindName(agg.kind)) +
                 (agg.input_name.empty() ? "" : "_" + agg.input_name);
    }
    output->push_back({agg.name, type});
  }
  auto node = New(PlanOp::kAggregate, std::move(child));
  node->group_by_ = std::move(group_by);
  node->aggregates_ = std::move(aggregates);
  node->output_ = std::move(output);
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeSort(PlanNodePtr child,
                                       std::vector<SortKey> keys) {
  if (!child || keys.empty()) {
    return Status::InvalidArgument("sort requires a child and keys");
  }
  for (const auto& key : keys) {
    if (key.column >= child->output_->size()) {
      return Status::InvalidArgument("sort key column out of range");
    }
  }
  auto node = New(PlanOp::kSort, std::move(child));
  node->sort_keys_ = std::move(keys);
  node->output_ = node->children_[0]->output_;
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeLimit(PlanNodePtr child, int64_t limit) {
  if (!child || limit < 0) {
    return Status::InvalidArgument("limit requires a child and n >= 0");
  }
  auto node = New(PlanOp::kLimit, std::move(child));
  node->limit_ = limit;
  node->output_ = node->children_[0]->output_;
  return PlanNodePtr(std::move(node));
}

Result<PlanNodePtr> PlanNode::MakeDistinct(PlanNodePtr child) {
  if (!child) return Status::InvalidArgument("distinct requires a child");
  auto node = New(PlanOp::kDistinct, std::move(child));
  node->output_ = node->children_[0]->output_;
  return PlanNodePtr(std::move(node));
}

std::string PlanNode::OperatorString() const {
  switch (op_) {
    case PlanOp::kTableScan:
      return "TableScan(table=[[" + table_ + "]])";
    case PlanOp::kFilter:
      return "Filter(condition=[" + predicate_->ToPrefixString() + "])";
    case PlanOp::kProject: {
      std::vector<std::string> parts;
      for (const auto& item : projections_) {
        parts.push_back(item.name + "=[" + item.expr->ToPrefixString() + "]");
      }
      return "Project(" + Join(parts, ", ") + ")";
    }
    case PlanOp::kJoin:
      return "Join(condition=[" + predicate_->ToPrefixString() +
             "], joinType=[inner])";
    case PlanOp::kAggregate: {
      std::vector<std::string> groups;
      for (size_t g : group_by_) {
        groups.push_back(children_[0]->output()[g].name);
      }
      std::string out = "Aggregate(group=[{" + Join(groups, ", ") + "}]";
      for (const auto& agg : aggregates_) {
        out += ", " + agg.name + "=[" + AggKindName(agg.kind) + "(" +
               agg.input_name + ")]";
      }
      return out + ")";
    }
    case PlanOp::kSort: {
      std::vector<std::string> keys;
      for (const auto& key : sort_keys_) {
        keys.push_back(children_[0]->output()[key.column].name +
                       (key.descending ? " DESC" : ""));
      }
      return "Sort(keys=[" + Join(keys, ", ") + "])";
    }
    case PlanOp::kLimit:
      return "Limit(n=[" + std::to_string(limit_) + "])";
    case PlanOp::kDistinct:
      return "Distinct()";
  }
  return "?";
}

namespace {
void RenderTree(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.OperatorString());
  out->push_back('\n');
  for (const auto& child : node.children()) {
    RenderTree(*child, depth + 1, out);
  }
}
}  // namespace

std::string PlanNode::ToString() const {
  std::string out;
  RenderTree(*this, 0, &out);
  return out;
}

std::vector<std::string> PlanNode::FeatureTokens() const {
  std::vector<std::string> tokens = {PlanOpName(op_)};
  switch (op_) {
    case PlanOp::kTableScan:
      tokens.push_back(table_);
      break;
    case PlanOp::kFilter:
      predicate_->AppendPrefixTokens(&tokens);
      break;
    case PlanOp::kProject:
      for (const auto& item : projections_) tokens.push_back(item.name);
      break;
    case PlanOp::kJoin:
      predicate_->AppendPrefixTokens(&tokens);
      tokens.push_back("inner");
      break;
    case PlanOp::kAggregate:
      for (size_t g : group_by_) {
        tokens.push_back(children_[0]->output()[g].name);
      }
      for (const auto& agg : aggregates_) {
        tokens.push_back(agg.name);
        tokens.push_back(AggKindName(agg.kind));
        if (!agg.input_name.empty()) tokens.push_back(agg.input_name);
      }
      break;
    case PlanOp::kSort:
      for (const auto& key : sort_keys_) {
        tokens.push_back(children_[0]->output()[key.column].name);
        if (key.descending) tokens.push_back("DESC");
      }
      break;
    case PlanOp::kLimit:
    {
      std::string quoted = "'";
      quoted += std::to_string(limit_);
      quoted += '\'';
      tokens.push_back(std::move(quoted));
      break;
    }
    case PlanOp::kDistinct:
      break;
  }
  return tokens;
}

std::vector<std::vector<std::string>> PlanNode::FeatureSequence() const {
  std::vector<std::vector<std::string>> seq;
  for (const auto& node : Subtrees()) {
    seq.push_back(node->FeatureTokens());
  }
  return seq;
}

void PlanNode::CollectSubtrees(const PlanNodePtr& node,
                               std::vector<PlanNodePtr>* out) {
  out->push_back(node);
  for (const auto& child : node->children_) CollectSubtrees(child, out);
}

std::vector<PlanNodePtr> PlanNode::Subtrees() const {
  std::vector<PlanNodePtr> out;
  // Root has no owning shared_ptr here; wrap with a non-owning aliasing ptr.
  PlanNodePtr self(PlanNodePtr(), this);
  CollectSubtrees(self, &out);
  return out;
}

uint64_t PlanNode::Hash() const {
  const uint64_t cached = cached_hash_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  uint64_t h = HashCombine(0x517cc1b727220a95ULL, static_cast<uint64_t>(op_));
  switch (op_) {
    case PlanOp::kTableScan:
      h = HashCombine(h, std::hash<std::string>{}(table_));
      break;
    case PlanOp::kFilter:
    case PlanOp::kJoin:
      h = HashCombine(h, predicate_->Hash());
      break;
    case PlanOp::kProject:
      for (const auto& item : projections_) {
        h = HashCombine(h, std::hash<std::string>{}(item.name));
        h = HashCombine(h, item.expr->Hash());
      }
      break;
    case PlanOp::kAggregate:
      for (size_t g : group_by_) h = HashCombine(h, g);
      for (const auto& agg : aggregates_) {
        h = HashCombine(h, static_cast<uint64_t>(agg.kind));
        h = HashCombine(h, agg.input_column ? *agg.input_column + 1 : 0);
        h = HashCombine(h, std::hash<std::string>{}(agg.name));
      }
      break;
    case PlanOp::kSort:
      for (const auto& key : sort_keys_) {
        h = HashCombine(h, key.column * 2 + (key.descending ? 1 : 0));
      }
      break;
    case PlanOp::kLimit:
      h = HashCombine(h, static_cast<uint64_t>(limit_));
      break;
    case PlanOp::kDistinct:
      break;
  }
  for (const auto& child : children_) h = HashCombine(h, child->Hash());
  if (h == 0) h = 1;  // reserve 0 for "not yet computed"
  cached_hash_.store(h, std::memory_order_relaxed);
  return h;
}

bool PlanNode::Equals(const PlanNode& other) const {
  if (op_ != other.op_) return false;
  if (Hash() != other.Hash()) return false;
  switch (op_) {
    case PlanOp::kTableScan:
      if (table_ != other.table_) return false;
      break;
    case PlanOp::kFilter:
    case PlanOp::kJoin:
      if (!predicate_->Equals(*other.predicate_)) return false;
      break;
    case PlanOp::kProject:
      if (projections_.size() != other.projections_.size()) return false;
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (projections_[i].name != other.projections_[i].name ||
            !projections_[i].expr->Equals(*other.projections_[i].expr)) {
          return false;
        }
      }
      break;
    case PlanOp::kAggregate:
      if (group_by_ != other.group_by_) return false;
      if (aggregates_.size() != other.aggregates_.size()) return false;
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        const auto& a = aggregates_[i];
        const auto& b = other.aggregates_[i];
        if (a.kind != b.kind || a.input_column != b.input_column ||
            a.name != b.name) {
          return false;
        }
      }
      break;
    case PlanOp::kSort:
      if (sort_keys_ != other.sort_keys_) return false;
      break;
    case PlanOp::kLimit:
      if (limit_ != other.limit_) return false;
      break;
    case PlanOp::kDistinct:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

std::vector<std::string> PlanNode::ScannedTables() const {
  std::set<std::string> tables;
  for (const auto& node : Subtrees()) {
    if (node->op() == PlanOp::kTableScan) tables.insert(node->table());
  }
  return {tables.begin(), tables.end()};
}

bool PlansOverlap(const PlanNode& a, const PlanNode& b) {
  std::unordered_set<uint64_t> hashes_a;
  std::vector<PlanNodePtr> subtrees_a = a.Subtrees();
  for (const auto& node : subtrees_a) hashes_a.insert(node->Hash());
  for (const auto& node : b.Subtrees()) {
    if (!hashes_a.count(node->Hash())) continue;
    // Confirm with deep equality to rule out hash collisions.
    for (const auto& cand : subtrees_a) {
      if (cand->Hash() == node->Hash() && cand->Equals(*node)) return true;
    }
  }
  return false;
}

}  // namespace autoview
