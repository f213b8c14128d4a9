#include "integrate/integrated_schema.h"

#include <algorithm>

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
  parents_.emplace_back();
  return it->second;
}

void IntegratedSchema::MapSource(const ClassRef& source, size_t index) {
  source_map_.insert_or_assign(source, index);
}

size_t IntegratedSchema::IndexOf(const ClassRef& source) const {
  auto it = source_map_.find(source);
  return it == source_map_.end() ? kNoClass : it->second;
}

const std::string& IntegratedSchema::NameOf(const ClassRef& source) const {
  static const std::string kUnmapped;
  const size_t index = IndexOf(source);
  return index == kNoClass ? kUnmapped : classes_[index].name;
}

size_t IntegratedSchema::IndexOfName(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoClass : it->second;
}

Status IntegratedSchema::AddIsA(const std::string& child,
                                const std::string& parent) {
  if (child == parent) {
    return Status::InvalidArgument(StrCat("is-a self loop on '", child, "'"));
  }
  const size_t c = IndexOfName(child);
  const size_t p = IndexOfName(parent);
  if (c == kNoClass || p == kNoClass) {
    return Status::NotFound(StrCat("is_a(", child, ", ", parent,
                                   ") names an unknown integrated class"));
  }
  return AddIsA(c, p);
}

Status IntegratedSchema::AddIsA(size_t child, size_t parent) {
  if (child >= classes_.size() || parent >= classes_.size()) {
    return Status::NotFound("is-a names an unknown integrated class index");
  }
  if (child == parent) {
    return Status::InvalidArgument(
        StrCat("is-a self loop on '", classes_[child].name, "'"));
  }
  if (HasIsA(child, parent)) return Status::OK();  // idempotent
  isa_links_.emplace_back(child, parent);
  parents_[child].push_back(parent);
  return Status::OK();
}

bool IntegratedSchema::RemoveIsA(const std::string& child,
                                 const std::string& parent) {
  const size_t c = IndexOfName(child);
  const size_t p = IndexOfName(parent);
  if (c == kNoClass || p == kNoClass || !HasIsA(c, p)) return false;
  std::vector<size_t>& parents = parents_[c];
  parents.erase(std::find(parents.begin(), parents.end(), p));
  isa_links_.erase(
      std::find(isa_links_.begin(), isa_links_.end(), std::make_pair(c, p)));
  return true;
}

bool IntegratedSchema::HasIsA(const std::string& child,
                              const std::string& parent) const {
  const size_t c = IndexOfName(child);
  const size_t p = IndexOfName(parent);
  return c != kNoClass && p != kNoClass && HasIsA(c, p);
}

bool IntegratedSchema::HasIsA(size_t child, size_t parent) const {
  if (child >= parents_.size()) return false;
  const std::vector<size_t>& parents = parents_[child];
  return std::find(parents.begin(), parents.end(), parent) != parents.end();
}

const IntegratedClass* IntegratedSchema::FindClass(
    const std::string& name) const {
  const size_t index = IndexOfName(name);
  return index == kNoClass ? nullptr : &classes_[index];
}

std::vector<std::pair<std::string, std::string>> IntegratedSchema::isa_links()
    const {
  std::vector<std::pair<std::string, std::string>> links;
  links.reserve(isa_links_.size());
  for (const auto& [child, parent] : isa_links_) {
    links.emplace_back(classes_[child].name, classes_[parent].name);
  }
  return links;
}

std::vector<std::string> IntegratedSchema::ParentsOf(
    const std::string& name) const {
  std::vector<std::string> out;
  const size_t index = IndexOfName(name);
  if (index == kNoClass) return out;
  for (size_t parent : parents_[index]) out.push_back(classes_[parent].name);
  return out;
}

std::vector<std::string> IntegratedSchema::ChildrenOf(
    const std::string& name) const {
  std::vector<std::string> out;
  const size_t index = IndexOfName(name);
  if (index == kNoClass) return out;
  for (const auto& [child, parent] : isa_links_) {
    if (parent == index) out.push_back(classes_[child].name);
  }
  return out;
}

std::set<std::pair<std::string, std::string>> IntegratedSchema::IsAClosure()
    const {
  std::set<std::pair<std::string, std::string>> closure;
  std::vector<size_t> seen(classes_.size(), kNoClass);
  std::vector<size_t> frontier;
  for (size_t c = 0; c < classes_.size(); ++c) {
    // BFS upward from c; seen[q] == c marks q as reached from c.
    frontier.assign(1, c);
    seen[c] = c;
    for (size_t head = 0; head < frontier.size(); ++head) {
      for (size_t parent : parents_[frontier[head]]) {
        if (seen[parent] != c) {
          seen[parent] = c;
          closure.emplace(classes_[c].name, classes_[parent].name);
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
  // link order against the per-class parent lists, from which each
  // redundant edge is dropped as soon as it is found, so a later test no
  // longer counts it as a path.
  // seen[q] == e + 1 marks q as reached by edge e's BFS.
  std::vector<size_t> seen(classes_.size(), 0);
  std::vector<size_t> frontier;
  std::vector<bool> redundant(isa_links_.size(), false);
  for (size_t e = 0; e < isa_links_.size(); ++e) {
    const auto [c, p] = isa_links_[e];
    // BFS from the child's other parents upward.
    frontier.clear();
    for (size_t q : parents_[c]) {
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
      for (size_t q : parents_[current]) {
        if (seen[q] != e + 1) {
          seen[q] = e + 1;
          frontier.push_back(q);
        }
      }
    }
    if (redundant[e]) {
      parents_[c].erase(std::find(parents_[c].begin(), parents_[c].end(), p));
    }
  }
  // Drop the redundant links; the rest keep their order.
  size_t kept = 0;
  for (size_t e = 0; e < isa_links_.size(); ++e) {
    if (!redundant[e]) isa_links_[kept++] = isa_links_[e];
  }
  const size_t removed = isa_links_.size() - kept;
  isa_links_.resize(kept);
  return removed;
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
      const std::string& range =
          g.integrated_range.empty() ? NameOf(g.local_range)
                                     : g.integrated_range;
      if (range.empty()) continue;  // unresolved range: drop the link
      class_def.AddAggregation(g.name, range, g.cardinality);
    }
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(class_def)).status());
  }
  for (const auto& [child, parent] : isa_links_) {
    OOINT_RETURN_IF_ERROR(schema.AddIsA(static_cast<ClassId>(child),
                                        static_cast<ClassId>(parent)));
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
    out += StrCat("  is_a(", classes_[child].name, ", ",
                  classes_[parent].name, ")\n");
  }
  for (const Rule& r : rules_) {
    out += StrCat("  rule: ", r.ToString(), "\n");
  }
  out += "}\n";
  return out;
}

}  // namespace ooint
