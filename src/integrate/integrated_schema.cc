#include "integrate/integrated_schema.h"

#include <algorithm>
#include <deque>

#include "common/string_util.h"

namespace ooint {

const char* ISClassKindName(ISClassKind kind) {
  switch (kind) {
    case ISClassKind::kMerged:
      return "merged";
    case ISClassKind::kCopied:
      return "copied";
    case ISClassKind::kVirtualIntersection:
      return "virtual-intersection";
    case ISClassKind::kVirtualDifference:
      return "virtual-difference";
  }
  return "?";
}

const char* ValueSetOpName(ValueSetOp op) {
  switch (op) {
    case ValueSetOp::kUnion:
      return "union";
    case ValueSetOp::kDifference:
      return "difference";
    case ValueSetOp::kIntersectAif:
      return "intersect-aif";
    case ValueSetOp::kConcatenation:
      return "concatenation";
    case ValueSetOp::kMoreSpecific:
      return "more-specific";
    case ValueSetOp::kCopy:
      return "copy";
  }
  return "?";
}

std::string IntegratedAttribute::ToString() const {
  std::vector<std::string> srcs;
  srcs.reserve(sources.size());
  for (const Path& p : sources) srcs.push_back(p.ToString());
  std::string out = StrCat(name, " [", ValueSetOpName(op), " of ",
                           Join(srcs, ", "));
  if (!aif_name.empty()) out += StrCat(" via ", aif_name);
  out += "]";
  return out;
}

std::string IntegratedAggregation::ToString() const {
  return StrCat(name, ": ",
                integrated_range.empty() ? local_range.ToString()
                                         : integrated_range,
                " with ", cardinality.ToString());
}

const IntegratedAttribute* IntegratedClass::FindAttribute(
    const std::string& attr_name) const {
  for (const IntegratedAttribute& a : attributes) {
    if (a.name == attr_name) return &a;
  }
  return nullptr;
}

std::string IntegratedClass::ToString() const {
  std::vector<std::string> srcs;
  srcs.reserve(sources.size());
  for (const ClassRef& c : sources) srcs.push_back(c.ToString());
  std::string out = StrCat(name, " (", ISClassKindName(kind), " of {",
                           Join(srcs, ", "), "}) {\n");
  for (const IntegratedAttribute& a : attributes) {
    out += StrCat("    ", a.ToString(), "\n");
  }
  for (const IntegratedAggregation& g : aggregations) {
    out += StrCat("    ", g.ToString(), "\n");
  }
  out += "  }";
  return out;
}

Result<size_t> IntegratedSchema::AddClass(IntegratedClass integrated_class) {
  auto [it, inserted] =
      by_name_.emplace(integrated_class.name, classes_.size());
  if (!inserted) {
    return Status::AlreadyExists(StrCat("integrated class '",
                                        integrated_class.name,
                                        "' already exists"));
  }
  classes_.push_back(std::move(integrated_class));
  return it->second;
}

void IntegratedSchema::MapSource(const ClassRef& source,
                                 const std::string& is_name) {
  source_map_[source.ToString()] = is_name;
}

std::string IntegratedSchema::NameOf(const ClassRef& source) const {
  auto it = source_map_.find(source.ToString());
  return it == source_map_.end() ? "" : it->second;
}

Status IntegratedSchema::AddIsA(const std::string& child,
                                const std::string& parent) {
  if (child == parent) {
    return Status::InvalidArgument(StrCat("is-a self loop on '", child, "'"));
  }
  const std::string key = StrCat(child, "->", parent);
  if (!isa_keys_.insert(key).second) return Status::OK();  // idempotent
  isa_links_.emplace_back(child, parent);
  return Status::OK();
}

bool IntegratedSchema::RemoveIsA(const std::string& child,
                                 const std::string& parent) {
  const std::string key = StrCat(child, "->", parent);
  if (isa_keys_.erase(key) == 0) return false;
  isa_links_.erase(
      std::remove(isa_links_.begin(), isa_links_.end(),
                  std::make_pair(child, parent)),
      isa_links_.end());
  return true;
}

bool IntegratedSchema::HasIsA(const std::string& child,
                              const std::string& parent) const {
  return isa_keys_.count(StrCat(child, "->", parent)) != 0;
}

const IntegratedClass* IntegratedSchema::FindClass(
    const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &classes_[it->second];
}

IntegratedClass* IntegratedSchema::MutableClass(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &classes_[it->second];
}

std::vector<std::string> IntegratedSchema::ParentsOf(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [child, parent] : isa_links_) {
    if (child == name) out.push_back(parent);
  }
  return out;
}

std::vector<std::string> IntegratedSchema::ChildrenOf(
    const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [child, parent] : isa_links_) {
    if (parent == name) out.push_back(child);
  }
  return out;
}

std::set<std::pair<std::string, std::string>> IntegratedSchema::IsAClosure()
    const {
  std::set<std::pair<std::string, std::string>> closure;
  for (const IntegratedClass& c : classes_) {
    // BFS upward from c.
    std::deque<std::string> frontier = {c.name};
    std::set<std::string> seen = {c.name};
    while (!frontier.empty()) {
      const std::string current = frontier.front();
      frontier.pop_front();
      for (const std::string& parent : ParentsOf(current)) {
        if (seen.insert(parent).second) {
          closure.emplace(c.name, parent);
          frontier.push_back(parent);
        }
      }
    }
  }
  return closure;
}

size_t IntegratedSchema::TransitiveReduction() {
  // An edge (c, p) is redundant iff p is reachable from c via a path of
  // length >= 2 that does not use the edge itself. Edges are tested in
  // link order. Each class's direct parents are numbered once and kept in
  // sync as redundant edges go, so a BFS step reads its adjacency instead
  // of scanning every link.
  std::map<std::string, size_t> ids;
  std::vector<std::pair<size_t, size_t>> edges;  // (child, parent) ids
  edges.reserve(isa_links_.size());
  for (const auto& [child, parent] : isa_links_) {
    const size_t c = ids.emplace(child, ids.size()).first->second;
    const size_t p = ids.emplace(parent, ids.size()).first->second;
    edges.emplace_back(c, p);
  }
  std::vector<std::vector<size_t>> parents(ids.size());
  for (const auto& [c, p] : edges) parents[c].push_back(p);
  // seen[q] == e + 1 marks q as reached by edge e's BFS.
  std::vector<size_t> seen(ids.size(), 0);
  std::vector<size_t> frontier;
  std::vector<bool> redundant(edges.size(), false);
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto [c, p] = edges[e];
    // BFS from the child's other parents upward.
    frontier.clear();
    for (size_t q : parents[c]) {
      if (q != p) {
        frontier.push_back(q);
        seen[q] = e + 1;
      }
    }
    for (size_t head = 0; head < frontier.size(); ++head) {
      const size_t current = frontier[head];
      if (current == p) {
        redundant[e] = true;
        break;
      }
      for (size_t q : parents[current]) {
        if (seen[q] != e + 1) {
          seen[q] = e + 1;
          frontier.push_back(q);
        }
      }
    }
    if (redundant[e]) {
      parents[c].erase(std::find(parents[c].begin(), parents[c].end(), p));
    }
  }
  // Drop the redundant links; the rest keep their order.
  size_t kept = 0;
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto& [child, parent] = isa_links_[e];
    if (redundant[e]) {
      isa_keys_.erase(StrCat(child, "->", parent));
      continue;
    }
    if (kept != e) isa_links_[kept] = std::move(isa_links_[e]);
    ++kept;
  }
  isa_links_.resize(kept);
  return edges.size() - kept;
}

void IntegratedSchema::ResolveAggregationRanges() {
  for (IntegratedClass& c : classes_) {
    for (IntegratedAggregation& g : c.aggregations) {
      if (g.integrated_range.empty()) {
        g.integrated_range = NameOf(g.local_range);
      }
    }
  }
}

Result<Schema> IntegratedSchema::ToSchema() const {
  Schema schema(name_);
  for (const IntegratedClass& c : classes_) {
    ClassDef class_def(c.name);
    for (const IntegratedAttribute& a : c.attributes) {
      class_def.AddAttribute(
          {a.name, AttributeType::Scalar(a.type), a.multi_valued});
    }
    for (const IntegratedAggregation& g : c.aggregations) {
      const std::string range =
          g.integrated_range.empty() ? NameOf(g.local_range)
                                     : g.integrated_range;
      if (range.empty()) continue;  // unresolved range: drop the link
      class_def.AddAggregation(g.name, range, g.cardinality);
    }
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(class_def)).status());
  }
  for (const auto& [child, parent] : isa_links_) {
    OOINT_RETURN_IF_ERROR(schema.AddIsA(child, parent));
  }
  OOINT_RETURN_IF_ERROR(schema.Finalize());
  return schema;
}

std::string IntegratedSchema::ToString() const {
  std::string out = StrCat("integrated schema ", name_, " {\n");
  for (const IntegratedClass& c : classes_) {
    out += StrCat("  ", c.ToString(), "\n");
  }
  for (const auto& [child, parent] : isa_links_) {
    out += StrCat("  is_a(", child, ", ", parent, ")\n");
  }
  for (const Rule& r : rules_) {
    out += StrCat("  rule: ", r.ToString(), "\n");
  }
  out += "}\n";
  return out;
}

}  // namespace ooint
