#ifndef OOINT_MODEL_SCHEMA_H_
#define OOINT_MODEL_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/class_def.h"

namespace ooint {

/// A local object-oriented schema: a set of classes connected by is-a
/// links and aggregation links (Section 6.1: "a local schema can be viewed
/// as a graph consisting of a set of object classes connected by is-a
/// links, aggregation links or semantic constraints").
///
/// Lifecycle: build with AddClass / AddIsA, then Finalize(). Finalize
/// validates the graph (unique names, resolved references, acyclic is-a
/// hierarchy) and freezes the schema; integration never mutates local
/// schemas (component-database autonomy, Sections 1 and 3).
class Schema {
 public:
  explicit Schema(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a class; fails after Finalize() or on duplicate name.
  Result<ClassId> AddClass(ClassDef class_def);

  /// Declares <child : parent>, i.e. is_a(child, parent). Both classes
  /// must already exist.
  Status AddIsA(const std::string& child, const std::string& parent);
  Status AddIsA(ClassId child, ClassId parent);

  /// Validates and freezes the schema:
  ///  - class names are unique (checked on insert) and non-empty,
  ///  - class-typed attributes and aggregation ranges resolve,
  ///  - the is-a graph is acyclic,
  ///  - no duplicate is-a edge.
  Status Finalize();
  bool finalized() const { return finalized_; }

  size_t NumClasses() const { return classes_.size(); }
  const std::vector<ClassDef>& classes() const { return classes_; }
  const ClassDef& class_def(ClassId id) const { return classes_[id]; }

  /// Name lookup; kInvalidClassId when absent.
  ClassId FindClass(const std::string& name) const;
  /// Name lookup that reports a NotFound status.
  Result<ClassId> GetClass(const std::string& name) const;

  /// Direct is-a neighbours.
  const std::vector<ClassId>& ParentsOf(ClassId id) const {
    return parents_[id];
  }
  const std::vector<ClassId>& ChildrenOf(ClassId id) const {
    return children_[id];
  }

  /// Classes with no is-a parent — the children of the paper's virtual
  /// start node (Section 6.1, Fig. 14).
  std::vector<ClassId> Roots() const;

  /// True iff `sub` == `super` or `sub` reaches `super` via is-a edges.
  bool IsSubclassOf(ClassId sub, ClassId super) const;

  /// All strict ancestors (resp. descendants) of `id`, de-duplicated, in
  /// BFS order.
  std::vector<ClassId> Ancestors(ClassId id) const;
  std::vector<ClassId> Descendants(ClassId id) const;

  /// Classes in an order where parents precede children. Valid only after
  /// Finalize().
  std::vector<ClassId> TopologicalOrder() const;

  /// Number of is-a edges.
  size_t NumIsAEdges() const;

  /// Multi-line dump of all classes and is-a links.
  std::string ToString() const;

 private:
  std::string name_;
  bool finalized_ = false;
  std::vector<ClassDef> classes_;
  std::map<std::string, ClassId> by_name_;
  std::vector<std::vector<ClassId>> parents_;
  std::vector<std::vector<ClassId>> children_;
};

}  // namespace ooint

#endif  // OOINT_MODEL_SCHEMA_H_
