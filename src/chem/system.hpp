// System: the topology half of a molecular dataset (what a .pdb file holds).
//
// A System owns the per-atom metadata -- names, residues, chains, elements,
// categories -- plus the periodic box and the reference coordinates from the
// structure file.  Trajectory frames (the .xtc side) are separate flat float
// arrays indexed consistently with the System's atom order.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chem/classify.hpp"
#include "chem/element.hpp"
#include "chem/selection.hpp"
#include "common/result.hpp"

namespace ada::chem {

/// Periodic simulation box. XTC stores a full 3x3 matrix; orthorhombic boxes
/// have only the diagonal set.
struct Box {
  std::array<float, 9> matrix{};  // row-major [a, b, c] basis vectors, nm

  static Box orthorhombic(float x, float y, float z) {
    Box b;
    b.matrix = {x, 0, 0, 0, y, 0, 0, 0, z};
    return b;
  }

  float x() const noexcept { return matrix[0]; }
  float y() const noexcept { return matrix[4]; }
  float z() const noexcept { return matrix[8]; }

  friend bool operator==(const Box&, const Box&) = default;
};

/// One atom record (order matches file order; `index` is implicit).
struct Atom {
  std::uint32_t serial = 0;       // PDB serial number (1-based, may wrap)
  std::string name;               // atom name, e.g. "CA", "OW"
  std::string residue_name;       // e.g. "ALA", "SOL", "POPC"
  char chain_id = 'A';
  std::uint32_t residue_seq = 0;  // residue sequence number
  bool hetatm = false;            // true if from a HETATM record
  Element element = Element::kUnknown;

  friend bool operator==(const Atom&, const Atom&) = default;
};

class System {
 public:
  System() = default;

  /// Append an atom with reference position (x, y, z) in nanometers.
  /// The atom's category is derived from its residue name on insertion.
  void add_atom(Atom atom, float x, float y, float z);

  std::uint32_t atom_count() const noexcept { return static_cast<std::uint32_t>(atoms_.size()); }
  const Atom& atom(std::uint32_t i) const { return atoms_.at(i); }
  const std::vector<Atom>& atoms() const noexcept { return atoms_; }

  Category category(std::uint32_t i) const { return categories_.at(i); }
  const std::vector<Category>& categories() const noexcept { return categories_; }

  /// Reference coordinates as xyz triplets (atom_count()*3 floats, nm).
  const std::vector<float>& reference_coords() const noexcept { return coords_; }

  const Box& box() const noexcept { return box_; }
  void set_box(const Box& box) { box_ = box; }

  /// All atoms belonging to `category`, as a run-list selection.
  Selection selection_for(Category category) const;

  /// Number of atoms in `category`.
  std::uint32_t count_category(Category category) const;

  /// Number of distinct residues (by (chain, residue_seq, residue_name) change).
  std::uint32_t residue_count() const;

  /// Total mass in daltons.
  double total_mass() const;

 private:
  std::vector<Atom> atoms_;
  std::vector<Category> categories_;
  std::vector<float> coords_;
  Box box_;
};

}  // namespace ada::chem
