#include "model/schema.h"

#include <algorithm>
#include <deque>

#include "common/string_util.h"

namespace ooint {

Result<ClassId> Schema::AddClass(ClassDef class_def) {
  if (finalized_) {
    return Status::FailedPrecondition(
        StrCat("schema '", name_, "' is finalized; cannot add class"));
  }
  if (class_def.name().empty()) {
    return Status::InvalidArgument("class name must be non-empty");
  }
  if (by_name_.count(class_def.name()) != 0) {
    return Status::AlreadyExists(
        StrCat("class '", class_def.name(), "' already in schema '", name_,
               "'"));
  }
  const ClassId id = static_cast<ClassId>(classes_.size());
  by_name_.emplace(class_def.name(), id);
  classes_.push_back(std::move(class_def));
  parents_.emplace_back();
  children_.emplace_back();
  return id;
}

Status Schema::AddIsA(const std::string& child, const std::string& parent) {
  if (finalized_) {
    return Status::FailedPrecondition(
        StrCat("schema '", name_, "' is finalized; cannot add is-a"));
  }
  Result<ClassId> c = GetClass(child);
  if (!c.ok()) return c.status();
  Result<ClassId> p = GetClass(parent);
  if (!p.ok()) return p.status();
  return AddIsA(c.value(), p.value());
}

Status Schema::AddIsA(ClassId child, ClassId parent) {
  if (finalized_) {
    return Status::FailedPrecondition(
        StrCat("schema '", name_, "' is finalized; cannot add is-a"));
  }
  const ClassId size = static_cast<ClassId>(classes_.size());
  if (child < 0 || child >= size || parent < 0 || parent >= size) {
    return Status::NotFound(
        StrCat("is-a names a class id not in schema '", name_, "'"));
  }
  const std::string& child_name = classes_[child].name();
  if (child == parent) {
    return Status::InvalidArgument(
        StrCat("is-a self loop on class '", child_name, "'"));
  }
  for (ClassId existing : parents_[child]) {
    if (existing == parent) {
      return Status::AlreadyExists(StrCat("is_a(", child_name, ", ",
                                          classes_[parent].name(),
                                          ") already declared"));
    }
  }
  parents_[child].push_back(parent);
  children_[parent].push_back(child);
  return Status::OK();
}

Status Schema::Finalize() {
  if (finalized_) return Status::OK();
  // Resolve class-typed attributes and aggregation ranges.
  for (ClassDef& c : classes_) {
    for (Attribute& a : c.attributes_) {
      if (a.type.is_class()) {
        const ClassId target = FindClass(a.type.class_name);
        if (target == kInvalidClassId) {
          return Status::NotFound(
              StrCat("attribute ", c.name(), ".", a.name,
                     " references unknown class '", a.type.class_name, "'"));
        }
        a.type.class_id = target;
      }
    }
    for (AggregationFunction& f : c.aggregations_) {
      const ClassId target = FindClass(f.range_class);
      if (target == kInvalidClassId) {
        return Status::NotFound(
            StrCat("aggregation ", c.name(), ".", f.name,
                   " references unknown range class '", f.range_class, "'"));
      }
      f.range_class_id = target;
    }
  }
  // Check the is-a graph is acyclic (Kahn's algorithm over child->parent
  // edges; classes "above" are parents).
  std::vector<int> out_degree(classes_.size(), 0);
  for (size_t i = 0; i < classes_.size(); ++i) {
    out_degree[i] = static_cast<int>(parents_[i].size());
  }
  std::deque<ClassId> ready;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (out_degree[i] == 0) ready.push_back(static_cast<ClassId>(i));
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const ClassId top = ready.front();
    ready.pop_front();
    ++visited;
    for (ClassId child : children_[top]) {
      if (--out_degree[child] == 0) ready.push_back(child);
    }
  }
  if (visited != classes_.size()) {
    return Status::InvalidArgument(
        StrCat("is-a hierarchy of schema '", name_, "' contains a cycle"));
  }
  finalized_ = true;
  return Status::OK();
}

ClassId Schema::FindClass(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidClassId : it->second;
}

Result<ClassId> Schema::GetClass(const std::string& name) const {
  const ClassId id = FindClass(name);
  if (id == kInvalidClassId) {
    return Status::NotFound(
        StrCat("class '", name, "' not in schema '", name_, "'"));
  }
  return id;
}

std::vector<ClassId> Schema::Roots() const {
  std::vector<ClassId> roots;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (parents_[i].empty()) roots.push_back(static_cast<ClassId>(i));
  }
  return roots;
}

bool Schema::IsSubclassOf(ClassId sub, ClassId super) const {
  if (sub == super) return true;
  std::vector<bool> seen(classes_.size(), false);
  std::deque<ClassId> frontier = {sub};
  seen[sub] = true;
  while (!frontier.empty()) {
    const ClassId cur = frontier.front();
    frontier.pop_front();
    for (ClassId parent : parents_[cur]) {
      if (parent == super) return true;
      if (!seen[parent]) {
        seen[parent] = true;
        frontier.push_back(parent);
      }
    }
  }
  return false;
}

namespace {

std::vector<ClassId> BfsClosure(
    ClassId start, const std::vector<std::vector<ClassId>>& edges) {
  std::vector<ClassId> out;
  std::vector<bool> seen(edges.size(), false);
  std::deque<ClassId> frontier = {start};
  seen[start] = true;
  while (!frontier.empty()) {
    const ClassId cur = frontier.front();
    frontier.pop_front();
    for (ClassId next : edges[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        out.push_back(next);
        frontier.push_back(next);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<ClassId> Schema::Ancestors(ClassId id) const {
  return BfsClosure(id, parents_);
}

std::vector<ClassId> Schema::Descendants(ClassId id) const {
  return BfsClosure(id, children_);
}

std::vector<ClassId> Schema::TopologicalOrder() const {
  std::vector<int> pending(classes_.size(), 0);
  for (size_t i = 0; i < classes_.size(); ++i) {
    pending[i] = static_cast<int>(parents_[i].size());
  }
  std::deque<ClassId> ready;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (pending[i] == 0) ready.push_back(static_cast<ClassId>(i));
  }
  std::vector<ClassId> order;
  order.reserve(classes_.size());
  while (!ready.empty()) {
    const ClassId top = ready.front();
    ready.pop_front();
    order.push_back(top);
    for (ClassId child : children_[top]) {
      if (--pending[child] == 0) ready.push_back(child);
    }
  }
  return order;
}

size_t Schema::NumIsAEdges() const {
  size_t n = 0;
  for (const auto& p : parents_) n += p.size();
  return n;
}

std::string Schema::ToString() const {
  std::string out = StrCat("schema ", name_, " {\n");
  for (const ClassDef& c : classes_) {
    out += StrCat("  ", c.ToString(), "\n");
  }
  for (size_t i = 0; i < classes_.size(); ++i) {
    for (ClassId parent : parents_[i]) {
      out += StrCat("  is_a(", classes_[i].name(), ", ",
                    classes_[parent].name(), ")\n");
    }
  }
  out += "}\n";
  return out;
}

}  // namespace ooint
