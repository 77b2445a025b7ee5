/**
 * @file
 * Whitespace / system-area estimation via a recursive-bipartition
 * slicing floorplan (paper Sec. III-D(3)).
 *
 * The algorithm follows the paper: chiplets are sorted in decreasing
 * area and greedily assigned to the lighter of two partitions
 * (area-balanced 2-way split); each partition is then bipartitioned
 * recursively until it holds a single chiplet, forming a full binary
 * tree whose leaves are chiplets. Processing the tree bottom-up
 * combines sub-partition bounding boxes -- accounting for chiplet
 * spacing and dimension imbalance -- into the package
 * substrate/interposer outline, and identifies chiplet-to-chiplet
 * interfaces for silicon bridges and NoC routers.
 */

#ifndef ECOCHIP_FLOORPLAN_FLOORPLAN_H
#define ECOCHIP_FLOORPLAN_FLOORPLAN_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "chiplet/chiplet.h"

namespace ecochip {

/** Input to the floorplanner: a named rectangle to place. */
struct ChipletBox
{
    /** Chiplet name carried through to placements/adjacencies. */
    std::string name;

    /** Die area in mm^2. */
    double areaMm2 = 0.0;

    /**
     * Width/height ratio of the die outline. The default 1.0
     * leaves the choice to the planner's aspect candidates; any
     * other value pins the die to that ratio (and its rotation).
     */
    double aspectRatio = 1.0;
};

/** Placed rectangle in the package coordinate frame (mm). */
struct Placement
{
    std::string name;
    double xMm = 0.0; ///< lower-left corner x
    double yMm = 0.0; ///< lower-left corner y
    double widthMm = 0.0;
    double heightMm = 0.0;
};

/** A pair of chiplets with abutting (spacing-separated) edges. */
struct Adjacency
{
    std::string first;
    std::string second;

    /** Length of the shared (overlapping) edge in mm. */
    double overlapMm = 0.0;
};

/** Output of the floorplanner. */
struct FloorplanResult
{
    /** Package/interposer outline (mm). */
    double widthMm = 0.0;
    double heightMm = 0.0;

    /** Outline area (mm^2). */
    double areaMm2() const { return widthMm * heightMm; }

    /** Sum of the placed chiplet areas (mm^2). */
    double chipletAreaMm2 = 0.0;

    /** Outline area minus chiplet area (mm^2). */
    double whitespaceAreaMm2 = 0.0;

    /** Whitespace as a fraction of the outline area. */
    double whitespaceFraction() const;

    /** Placed chiplet rectangles. */
    std::vector<Placement> placements;

    /** Abutting chiplet pairs (bridge/router sites). */
    std::vector<Adjacency> adjacencies;

    /** Lookup a placement by chiplet name. */
    const Placement &placement(const std::string &name) const;
};

/**
 * Deterministic slicing floorplanner.
 *
 * Determinism matters: the whitespace it reports feeds Apackage in
 * Eq. 9 and the interposer area, so results must be reproducible
 * run-to-run.
 */
class Floorplanner
{
  public:
    /** Default inter-chiplet spacing (Table I: 0.1 - 1 mm). */
    static constexpr double kDefaultSpacingMm = 0.5;

    /**
     * @param spacing_mm Minimum spacing between chiplets and between
     *        sub-partitions (assembly keep-out).
     */
    explicit Floorplanner(double spacing_mm = kDefaultSpacingMm);

    /** Configured chiplet spacing in mm. */
    double spacingMm() const { return spacingMm_; }

    /**
     * Disable the dominance lower-bound cutoff in the slicing
     * search and enumerate every child-shape pair when combining
     * sub-floorplans. The cutoff never changes the result (it only
     * skips realizations whose bounding box is provably dominated
     * by an already-enumerated one, so the non-dominated frontier
     * is identical); the exhaustive mode exists to measure the
     * before/after cost in `bench_perf`.
     */
    void setExhaustiveCombine(bool on) { exhaustiveCombine_ = on; }

    /** True when the combine enumeration is exhaustive. */
    bool exhaustiveCombine() const { return exhaustiveCombine_; }

    /**
     * Aspect ratios the planner may choose for each chiplet whose
     * box does not pin one explicitly (paper Sec. III-D(3):
     * processing a leaf "involves setting the orientation and
     * aspect ratio of the chiplet"). The plan keeps, per slicing
     * node, the full non-dominated shape curve (Stockmeyer-style)
     * and picks the minimum-area realization at the root.
     *
     * @param candidates Non-empty list of width/height ratios;
     *        each also contributes its rotated (1/r) form.
     */
    void setAspectCandidates(std::vector<double> candidates);

    /** Aspect candidates in use. */
    const std::vector<double> &
    aspectCandidates() const
    {
        return aspectCandidates_;
    }

    /**
     * Floorplan a set of chiplet boxes.
     *
     * @param boxes One entry per chiplet; at least one required.
     * @return Outline, whitespace, placements, and adjacencies.
     */
    FloorplanResult plan(const std::vector<ChipletBox> &boxes) const;

    /**
     * Convenience: floorplan a SystemSpec by deriving each
     * chiplet's box from the area-scaling model. Stack groups
     * (mixed 2.5D/3D towers) occupy one footprint box each.
     */
    FloorplanResult plan(const SystemSpec &system,
                         const TechDb &tech) const;

  private:
    double spacingMm_;
    bool exhaustiveCombine_ = false;
    std::vector<double> aspectCandidates_ = {1.0};
};

/**
 * One unit of a system's planar floorplan: a planar chiplet, or a
 * vertical stack group placed at its first member's position.
 */
struct PlanarUnit
{
    /** Chiplet name, or the stack group's name. */
    std::string label;

    /** Index of the chiplet, or of the group's first member. */
    std::size_t first = 0;

    /** A stack group's member indices in system order; empty for a
     *  planar chiplet. */
    std::vector<std::size_t> members;

    bool stacked() const { return !members.empty(); }
};

/**
 * The planar units of @p system in order of first appearance: every
 * chiplet without a stack group, and every stack group once, at its
 * first member. This is the one walk over stack groups; the
 * floorplan boxes, the package model and both kernels read it.
 */
std::vector<PlanarUnit> planarUnits(const SystemSpec &system);

/**
 * Widest member of stack @p unit under @p area_of (chiplet index ->
 * mm^2), in member order: the stack's footprint.
 */
template <class AreaOf>
double
footprintMm2(const PlanarUnit &unit, const AreaOf &area_of)
{
    double footprint_mm2 = 0.0;
    for (std::size_t member : unit.members)
        footprint_mm2 = std::max(footprint_mm2, area_of(member));
    return footprint_mm2;
}

/**
 * Boxes for the planar floorplan of a system: planar chiplets one
 * box each; every vertical stack group one box at the group's
 * footprint (its widest tier).
 *
 * @param system System description.
 * @param tech Technology database for the area model.
 */
std::vector<ChipletBox> planarBoxes(const SystemSpec &system,
                                    const TechDb &tech);

} // namespace ecochip

#endif // ECOCHIP_FLOORPLAN_FLOORPLAN_H
