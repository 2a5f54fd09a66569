#include "ada/categorizer.hpp"

#include "obs/trace.hpp"

namespace ada::core {

Result<chem::Selection> LabelMap::selection(const Tag& tag) const {
  const auto it = groups.find(tag);
  if (it == groups.end()) return not_found("no atoms labeled '" + tag + "'");
  return it->second;
}

std::uint64_t LabelMap::tag_atoms(const Tag& tag) const {
  const auto it = groups.find(tag);
  return it == groups.end() ? 0 : it->second.count();
}

std::vector<Tag> LabelMap::tags() const {
  std::vector<Tag> out;
  out.reserve(groups.size());
  for (const auto& [tag, selection] : groups) out.push_back(tag);
  return out;
}

bool LabelMap::is_partition() const {
  std::uint64_t total = 0;
  chem::Selection all;
  for (const auto& [tag, selection] : groups) {
    total += selection.count();
    all = all.unite(selection);
  }
  // Union covering [0, atom_count) with counts summing to atom_count means
  // no overlap and no hole.
  return total == atom_count && all == chem::Selection::all(atom_count);
}

LabelMap categorize(const chem::System& system, const TypeFn& get_type) {
  // Algorithm 1 from the paper, with `labeler` == LabelMap::groups.
  const obs::Span span("categorize");
  LabelMap labeler;
  labeler.atom_count = system.atom_count();

  std::uint32_t offset = 0;
  std::uint32_t begin = 0;
  Tag prev_tag;
  bool have_prev = false;

  auto flush_run = [&](std::uint32_t end) {
    labeler.groups[prev_tag].add_run({begin, end});
  };

  for (std::uint32_t i = 0; i < system.atom_count(); ++i) {
    const Tag tag = get_type(system.atom(i), system.category(i));
    if (!have_prev) {
      prev_tag = tag;
      have_prev = true;
    } else if (tag != prev_tag) {
      flush_run(offset);
      prev_tag = tag;
      begin = offset;
    }
    ++offset;
  }
  if (have_prev) flush_run(offset);
  return labeler;
}

namespace {

/// categorize() for a GetType that reads only the category: one call and
/// one add_run per category run, not per atom.  add_run joins adjacent runs
/// of one tag, so the label map is the one categorize() builds.
LabelMap categorize_by_category(const chem::System& system, Tag (*tag_of)(chem::Category)) {
  const obs::Span span("categorize");
  LabelMap labeler;
  labeler.atom_count = system.atom_count();
  const std::vector<chem::Category>& categories = system.categories();
  for (std::uint32_t begin = 0; begin < labeler.atom_count;) {
    std::uint32_t end = begin + 1;
    while (end < labeler.atom_count && categories[end] == categories[begin]) ++end;
    labeler.groups[tag_of(categories[begin])].add_run({begin, end});
    begin = end;
  }
  return labeler;
}

}  // namespace

LabelMap categorize_protein_misc(const chem::System& system) {
  return categorize_by_category(system, [](chem::Category category) {
    return category == chem::Category::kProtein ? kProteinTag : kMiscTag;
  });
}

LabelMap categorize_fine_grained(const chem::System& system) {
  return categorize_by_category(system, [](chem::Category category) {
    return Tag(1, chem::category_tag(category));
  });
}

}  // namespace ada::core
