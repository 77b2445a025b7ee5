#include "floorplan/floorplan.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "support/error.h"

namespace ecochip {

double
FloorplanResult::whitespaceFraction() const
{
    const double outline = areaMm2();
    return outline > 0.0 ? whitespaceAreaMm2 / outline : 0.0;
}

const Placement &
FloorplanResult::placement(const std::string &name) const
{
    for (const auto &p : placements)
        if (p.name == name)
            return p;
    throw ConfigError("no placement for chiplet \"" + name + "\"");
}

Floorplanner::Floorplanner(double spacing_mm)
    : spacingMm_(spacing_mm)
{
    requireConfig(spacing_mm >= 0.0,
                  "chiplet spacing must be non-negative");
}

void
Floorplanner::setAspectCandidates(std::vector<double> candidates)
{
    requireConfig(!candidates.empty(),
                  "aspect candidate list must be non-empty");
    for (double r : candidates)
        requireConfig(r > 0.0,
                      "aspect candidates must be positive");
    aspectCandidates_ = std::move(candidates);
}

namespace {

/**
 * One realization of a slicing sub-tree: its bounding box plus the
 * child realizations and cut direction that produce it.
 */
struct Shape
{
    double widthMm = 0.0;
    double heightMm = 0.0;
    int leftChoice = -1;  ///< index into left child's curve
    int rightChoice = -1; ///< index into right child's curve
    bool horizontalCut = false;

    double areaMm2() const { return widthMm * heightMm; }
};

/** Slicing-tree node with its non-dominated shape curve. */
struct SliceNode
{
    int boxIndex = -1; ///< leaf payload

    std::unique_ptr<SliceNode> left;
    std::unique_ptr<SliceNode> right;

    /** Non-dominated realizations, sorted by increasing width. */
    std::vector<Shape> shapes;

    bool isLeaf() const { return !left && !right; }
};

/**
 * Build the slicing tree: greedy area-balanced 2-way partition of
 * the decreasing-area visit order, recursively to single-chiplet
 * leaves.
 */
std::unique_ptr<SliceNode>
buildTree(const std::vector<int> &indices,
          const std::vector<ChipletBox> &boxes)
{
    auto node = std::make_unique<SliceNode>();
    if (indices.size() == 1) {
        node->boxIndex = indices.front();
        return node;
    }

    std::vector<int> group_a, group_b;
    double weight_a = 0.0, weight_b = 0.0;
    for (int idx : indices) {
        const double area = boxes[idx].areaMm2;
        if (weight_a <= weight_b) {
            group_a.push_back(idx);
            weight_a += area;
        } else {
            group_b.push_back(idx);
            weight_b += area;
        }
    }
    node->left = buildTree(group_a, boxes);
    node->right = buildTree(group_b, boxes);
    return node;
}

/**
 * Keep only the Pareto frontier of shapes (no other shape is both
 * narrower and shorter), sorted by increasing width. The
 * comparator is a total order -- bounding box first, then child
 * choices -- so the surviving representative of equal-box shapes
 * is canonical: a function of the shape multiset, independent of
 * enumeration order (std::sort is unstable) and of whether the
 * dominated entries interleaved between them were enumerated at
 * all (the combine cutoff skips some).
 */
std::vector<Shape>
pruneDominated(std::vector<Shape> shapes)
{
    std::sort(shapes.begin(), shapes.end(),
              [](const Shape &a, const Shape &b) {
                  if (a.widthMm != b.widthMm)
                      return a.widthMm < b.widthMm;
                  if (a.heightMm != b.heightMm)
                      return a.heightMm < b.heightMm;
                  if (a.horizontalCut != b.horizontalCut)
                      return a.horizontalCut;
                  if (a.leftChoice != b.leftChoice)
                      return a.leftChoice < b.leftChoice;
                  return a.rightChoice < b.rightChoice;
              });
    std::vector<Shape> frontier;
    for (const Shape &shape : shapes) {
        if (!frontier.empty() &&
            shape.heightMm >= frontier.back().heightMm - 1e-12)
            continue; // dominated (wider and not shorter)
        frontier.push_back(shape);
    }
    return frontier;
}

/** Cap the curve length to bound combine cost. */
std::vector<Shape>
thinCurve(std::vector<Shape> shapes, std::size_t max_size)
{
    if (shapes.size() <= max_size)
        return shapes;
    std::vector<Shape> thinned;
    const double step = static_cast<double>(shapes.size() - 1) /
                        static_cast<double>(max_size - 1);
    for (std::size_t i = 0; i < max_size; ++i) {
        thinned.push_back(
            shapes[static_cast<std::size_t>(i * step + 0.5)]);
    }
    return thinned;
}

/** Build each node's shape curve bottom-up (Stockmeyer-style). */
void
shapeTree(SliceNode &node, const std::vector<ChipletBox> &boxes,
          const std::vector<double> &aspect_candidates,
          double spacing_mm, bool exhaustive_combine)
{
    constexpr std::size_t max_curve = 16;

    if (node.isLeaf()) {
        const auto &box = boxes[node.boxIndex];
        // A pinned aspect ratio restricts the leaf to that shape
        // and its rotation; the default leaves the planner free
        // over its candidate set (each plus rotation).
        std::vector<double> ratios;
        if (box.aspectRatio != 1.0) {
            ratios = {box.aspectRatio, 1.0 / box.aspectRatio};
        } else {
            for (double r : aspect_candidates) {
                ratios.push_back(r);
                ratios.push_back(1.0 / r);
            }
        }
        std::vector<Shape> shapes;
        for (double r : ratios) {
            Shape s;
            s.widthMm = std::sqrt(box.areaMm2 * r);
            s.heightMm = std::sqrt(box.areaMm2 / r);
            shapes.push_back(s);
        }
        node.shapes =
            thinCurve(pruneDominated(std::move(shapes)),
                      max_curve);
        return;
    }

    shapeTree(*node.left, boxes, aspect_candidates, spacing_mm,
              exhaustive_combine);
    shapeTree(*node.right, boxes, aspect_candidates, spacing_mm,
              exhaustive_combine);

    // Child curves are non-dominated: sorted by strictly
    // increasing width, strictly decreasing height. That orders a
    // lower bound on each cut's bounding box, which prunes most of
    // the pair enumeration without touching the frontier:
    //
    //  - Horizontal cut (side by side): the combined height is at
    //    least ls.height. Once the right child is no taller than
    //    the left (rs.height <= ls.height), every wider right
    //    shape yields the same height at strictly greater width --
    //    dominated by the first such pairing. Emit it and stop.
    //  - Vertical cut (stacked): symmetric on widths; scan the
    //    right curve in decreasing width and stop after the first
    //    right shape no wider than the left.
    //
    // Every skipped pair is strictly dominated by an emitted one,
    // so pruneDominated() returns the identical frontier and the
    // plan is bit-identical to the exhaustive enumeration.
    std::vector<Shape> shapes;
    const auto &left = node.left->shapes;
    const auto &right = node.right->shapes;
    for (std::size_t li = 0; li < left.size(); ++li) {
        const Shape &ls = left[li];

        // Horizontal cut: children side by side.
        for (std::size_t ri = 0; ri < right.size(); ++ri) {
            const Shape &rs = right[ri];
            Shape h;
            h.widthMm = ls.widthMm + spacing_mm + rs.widthMm;
            h.heightMm = std::max(ls.heightMm, rs.heightMm);
            h.leftChoice = static_cast<int>(li);
            h.rightChoice = static_cast<int>(ri);
            h.horizontalCut = true;
            shapes.push_back(h);
            if (!exhaustive_combine &&
                rs.heightMm <= ls.heightMm)
                break;
        }

        // Vertical cut: children stacked.
        for (std::size_t k = right.size(); k-- > 0;) {
            const Shape &rs = right[k];
            Shape v;
            v.widthMm = std::max(ls.widthMm, rs.widthMm);
            v.heightMm = ls.heightMm + spacing_mm + rs.heightMm;
            v.leftChoice = static_cast<int>(li);
            v.rightChoice = static_cast<int>(k);
            v.horizontalCut = false;
            shapes.push_back(v);
            if (!exhaustive_combine && rs.widthMm <= ls.widthMm)
                break;
        }
    }
    node.shapes =
        thinCurve(pruneDominated(std::move(shapes)), max_curve);
}

/** Index of the minimum-area shape (width as tie-break). */
int
bestShape(const std::vector<Shape> &shapes)
{
    requireModel(!shapes.empty(), "empty shape curve");
    int best = 0;
    for (std::size_t i = 1; i < shapes.size(); ++i) {
        if (shapes[i].areaMm2() <
            shapes[best].areaMm2() - 1e-12)
            best = static_cast<int>(i);
    }
    return best;
}

/** Assign coordinates top-down from the chosen realizations. */
void
placeTree(const SliceNode &node, int shape_index,
          const std::vector<ChipletBox> &boxes, double x_mm,
          double y_mm, double spacing_mm,
          std::vector<Placement> &out)
{
    const Shape &shape = node.shapes[shape_index];
    if (node.isLeaf()) {
        const auto &box = boxes[node.boxIndex];
        out.push_back({box.name, x_mm, y_mm, shape.widthMm,
                       shape.heightMm});
        return;
    }
    const Shape &ls = node.left->shapes[shape.leftChoice];
    if (shape.horizontalCut) {
        placeTree(*node.left, shape.leftChoice, boxes, x_mm, y_mm,
                  spacing_mm, out);
        placeTree(*node.right, shape.rightChoice, boxes,
                  x_mm + ls.widthMm + spacing_mm, y_mm,
                  spacing_mm, out);
    } else {
        placeTree(*node.left, shape.leftChoice, boxes, x_mm, y_mm,
                  spacing_mm, out);
        placeTree(*node.right, shape.rightChoice, boxes, x_mm,
                  y_mm + ls.heightMm + spacing_mm, spacing_mm,
                  out);
    }
}

/** 1-D overlap of [a0, a1] and [b0, b1]. */
double
rangeOverlap(double a0, double a1, double b0, double b1)
{
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

/**
 * Extract abutting pairs: chiplets whose rectangles face each other
 * across at most the spacing gap (plus tolerance) and overlap along
 * the facing edge.
 */
std::vector<Adjacency>
extractAdjacencies(const std::vector<Placement> &placements,
                   double spacing_mm)
{
    const double gap_limit = spacing_mm + 1e-6;
    std::vector<Adjacency> adjacencies;
    for (std::size_t i = 0; i < placements.size(); ++i) {
        for (std::size_t j = i + 1; j < placements.size(); ++j) {
            const auto &a = placements[i];
            const auto &b = placements[j];

            const double ax1 = a.xMm + a.widthMm;
            const double ay1 = a.yMm + a.heightMm;
            const double bx1 = b.xMm + b.widthMm;
            const double by1 = b.yMm + b.heightMm;

            const double x_gap =
                std::max(b.xMm - ax1, a.xMm - bx1);
            const double y_gap =
                std::max(b.yMm - ay1, a.yMm - by1);

            double overlap = 0.0;
            if (x_gap >= 0.0 && x_gap <= gap_limit && y_gap < 0.0) {
                overlap = rangeOverlap(a.yMm, ay1, b.yMm, by1);
            } else if (y_gap >= 0.0 && y_gap <= gap_limit &&
                       x_gap < 0.0) {
                overlap = rangeOverlap(a.xMm, ax1, b.xMm, bx1);
            }
            if (overlap > 1e-9)
                adjacencies.push_back({a.name, b.name, overlap});
        }
    }
    return adjacencies;
}

} // namespace

FloorplanResult
Floorplanner::plan(const std::vector<ChipletBox> &boxes) const
{
    requireConfig(!boxes.empty(),
                  "floorplan needs at least one chiplet");
    for (const auto &box : boxes) {
        requireConfig(box.areaMm2 > 0.0,
                      "chiplet \"" + box.name +
                          "\" must have positive area");
        requireConfig(box.aspectRatio > 0.0,
                      "chiplet \"" + box.name +
                          "\" must have positive aspect ratio");
    }

    // Stable decreasing-area visit order (name-tiebreak keeps the
    // plan deterministic for equal areas).
    std::vector<int> order(boxes.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (boxes[a].areaMm2 != boxes[b].areaMm2)
            return boxes[a].areaMm2 > boxes[b].areaMm2;
        return boxes[a].name < boxes[b].name;
    });

    auto root = buildTree(order, boxes);
    shapeTree(*root, boxes, aspectCandidates_, spacingMm_,
              exhaustiveCombine_);
    const int root_choice = bestShape(root->shapes);

    FloorplanResult result;
    result.widthMm = root->shapes[root_choice].widthMm;
    result.heightMm = root->shapes[root_choice].heightMm;
    placeTree(*root, root_choice, boxes, 0.0, 0.0, spacingMm_,
              result.placements);

    for (const auto &box : boxes)
        result.chipletAreaMm2 += box.areaMm2;
    result.whitespaceAreaMm2 =
        result.areaMm2() - result.chipletAreaMm2;
    result.adjacencies =
        extractAdjacencies(result.placements, spacingMm_);
    return result;
}

FloorplanResult
Floorplanner::plan(const SystemSpec &system, const TechDb &tech) const
{
    return plan(planarBoxes(system, tech));
}

std::vector<PlanarUnit>
planarUnits(const SystemSpec &system)
{
    std::vector<PlanarUnit> units;
    const std::size_t n = system.chiplets.size();
    units.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &group = system.chiplets[i].stackGroup;
        if (group.empty()) {
            units.push_back({system.chiplets[i].name, i, {}});
            continue;
        }
        bool seen = false;
        for (const auto &unit : units)
            seen |= unit.stacked() && unit.label == group;
        if (seen)
            continue;
        PlanarUnit unit{group, i, {}};
        for (std::size_t k = i; k < n; ++k)
            if (system.chiplets[k].stackGroup == group)
                unit.members.push_back(k);
        units.push_back(std::move(unit));
    }
    return units;
}

std::vector<ChipletBox>
planarBoxes(const SystemSpec &system, const TechDb &tech)
{
    auto area_of = [&](std::size_t i) {
        return system.chiplets[i].areaMm2(tech);
    };
    const std::vector<PlanarUnit> units = planarUnits(system);
    std::vector<ChipletBox> boxes;
    boxes.reserve(units.size());
    for (const PlanarUnit &unit : units)
        boxes.push_back({unit.label,
                         unit.stacked() ? footprintMm2(unit, area_of)
                                        : area_of(unit.first),
                         1.0});
    return boxes;
}

} // namespace ecochip
