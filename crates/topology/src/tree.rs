use std::fmt;

use crate::{LinkId, NodeId, NodeKind, TreeError};

/// A validated, immutable source-rooted IP multicast tree.
///
/// Invariants (checked at construction):
///
/// * node `0` is the unique [`NodeKind::Source`] and the root;
/// * every [`NodeKind::Receiver`] is a leaf and every leaf is a receiver;
/// * every [`NodeKind::Router`] is interior (has at least one child);
/// * the parent relation forms a single tree rooted at the source.
///
/// Nodes are dense indices, so per-node data is naturally stored in flat
/// vectors indexed by [`NodeId::index`] — no per-node heap block anywhere:
/// adjacency is one compressed (CSR) children array, and every subtree's
/// receivers are one range of a single preorder receiver list. Links are
/// identified by the node they point into ([`LinkId`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MulticastTree {
    parent: Vec<Option<NodeId>>,
    /// CSR offsets: the children of `n` are
    /// `child_ids[child_start[n]..child_start[n + 1]]`.
    child_start: Vec<u32>,
    /// Every non-root node, grouped by parent, each group in creation
    /// (= id) order.
    child_ids: Vec<NodeId>,
    kind: Vec<NodeKind>,
    depth_of: Vec<u32>,
    receivers: Vec<NodeId>,
    /// All receivers in preorder, so each subtree's receivers are one
    /// contiguous range (located by `tin`/`tout`).
    receivers_pre: Vec<NodeId>,
    /// Preorder entry index of each node (Euler-tour interval start).
    tin: Vec<u32>,
    /// One past the last preorder index inside each node's subtree, so the
    /// subtree of `n` is exactly `{ u : tin[n] <= tin[u] < tout[n] }` and
    /// ancestor tests are O(1).
    tout: Vec<u32>,
}

impl MulticastTree {
    /// Builds a tree from a parent vector and node kinds.
    ///
    /// `parent[i]` is the parent of node `i`, `None` exactly for the root
    /// (node `0`).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the relation is not a single rooted tree or
    /// any kind/position invariant is violated.
    pub fn from_parents(
        parent: Vec<Option<NodeId>>,
        kind: Vec<NodeKind>,
    ) -> Result<Self, TreeError> {
        assert_eq!(
            parent.len(),
            kind.len(),
            "parent and kind vectors must have equal length"
        );
        let n = parent.len();
        if n == 0 || parent[0].is_some() || kind[0] != NodeKind::Source {
            return Err(TreeError::NotATree);
        }
        // Counting sort of the nodes by parent into the CSR arrays: count
        // each parent's children, prefix-sum the counts into offsets, then
        // place the children in id order.
        let mut child_start = vec![0u32; n + 1];
        for (i, p) in parent.iter().enumerate() {
            match p {
                None => {
                    if i != 0 {
                        return Err(TreeError::NotATree);
                    }
                }
                Some(p) => {
                    if p.index() >= n {
                        return Err(TreeError::UnknownParent(*p));
                    }
                    if kind[i] == NodeKind::Source {
                        // only the root may be the source
                        return Err(TreeError::NotATree);
                    }
                    child_start[p.index() + 1] += 1;
                }
            }
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let child_ids = {
            let mut ids = vec![NodeId::ROOT; n - 1];
            let mut next = child_start.clone();
            for (i, p) in parent.iter().enumerate() {
                if let Some(p) = p {
                    ids[next[p.index()] as usize] = NodeId(i as u32);
                    next[p.index()] += 1;
                }
            }
            ids
        };
        let children = |u: NodeId| {
            &child_ids[child_start[u.index()] as usize..child_start[u.index() + 1] as usize]
        };
        // Depth-first walk from the root: detects forests/cycles (unreached
        // nodes) and computes depths.
        let mut depth_of = vec![u32::MAX; n];
        let mut stack = vec![NodeId::ROOT];
        depth_of[0] = 0;
        let mut seen = 1usize;
        while let Some(u) = stack.pop() {
            for &c in children(u) {
                if depth_of[c.index()] != u32::MAX {
                    return Err(TreeError::NotATree);
                }
                depth_of[c.index()] = depth_of[u.index()] + 1;
                seen += 1;
                stack.push(c);
            }
        }
        if seen != n {
            return Err(TreeError::NotATree);
        }
        for (i, k) in kind.iter().enumerate() {
            let id = NodeId(i as u32);
            match k {
                NodeKind::Receiver => {
                    if !children(id).is_empty() {
                        return Err(TreeError::ReceiverWithChildren(id));
                    }
                }
                NodeKind::Router => {
                    if children(id).is_empty() {
                        return Err(TreeError::ChildlessRouter(id));
                    }
                }
                NodeKind::Source => {}
            }
        }
        let receivers: Vec<NodeId> = (0..n)
            .filter(|&i| kind[i] == NodeKind::Receiver)
            .map(|i| NodeId(i as u32))
            .collect();
        if receivers.is_empty() {
            return Err(TreeError::NoReceivers);
        }
        // Euler-tour intervals: preorder entry per node plus the end of its
        // subtree's preorder range, for O(1) ancestor/subtree membership.
        // The same walk lists the receivers in preorder.
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut receivers_pre = Vec::with_capacity(receivers.len());
        let mut clock = 0u32;
        let mut walk: Vec<(NodeId, bool)> = vec![(NodeId::ROOT, false)];
        while let Some((u, expanded)) = walk.pop() {
            if expanded {
                tout[u.index()] = clock;
            } else {
                tin[u.index()] = clock;
                clock += 1;
                if kind[u.index()] == NodeKind::Receiver {
                    receivers_pre.push(u);
                }
                walk.push((u, true));
                for &c in children(u).iter().rev() {
                    walk.push((c, false));
                }
            }
        }
        Ok(MulticastTree {
            parent,
            child_start,
            child_ids,
            kind,
            depth_of,
            receivers,
            receivers_pre,
            tin,
            tout,
        })
    }

    /// The tree root, i.e. the transmission source.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Total number of nodes (source + routers + receivers).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` iff the tree has no nodes. Never true for a validated tree,
    /// provided for [`len`](Self::len) symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `n`, or `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent[n.index()]
    }

    /// The children of `n` in creation order.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.child_ids[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kind[n.index()]
    }

    /// `true` iff `n` is a receiver leaf.
    #[inline]
    pub fn is_receiver(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Receiver
    }

    /// All receivers, sorted by node id.
    #[inline]
    pub fn receivers(&self) -> &[NodeId] {
        &self.receivers
    }

    /// Number of edges from the root to node `n`.
    #[inline]
    pub fn depth_of(&self, n: NodeId) -> usize {
        self.depth_of[n.index()] as usize
    }

    /// The tree depth: the maximum root-to-leaf edge count.
    pub fn depth(&self) -> usize {
        self.receivers
            .iter()
            .map(|&r| self.depth_of(r))
            .max()
            .unwrap_or(0)
    }

    /// The receivers in the subtree rooted at `n`, in preorder (children
    /// visited in creation order). The slice is a range of one preorder
    /// list, found by binary search over the subtree's `tin`/`tout`
    /// interval: O(log receivers), no per-node storage.
    pub fn receivers_below(&self, n: NodeId) -> &[NodeId] {
        let rank = |t: u32| {
            self.receivers_pre
                .partition_point(|r| self.tin[r.index()] < t)
        };
        &self.receivers_pre[rank(self.tin[n.index()])..rank(self.tout[n.index()])]
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterates over all links; each non-root node contributes the link from
    /// its parent into it.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.nodes().filter(move |&n| n != NodeId::ROOT).map(LinkId)
    }

    /// Number of links (`len() - 1`).
    #[inline]
    pub fn link_count(&self) -> usize {
        self.len() - 1
    }

    /// `true` iff `maybe_ancestor` lies on the path from the root to `n`
    /// (inclusive of `n` itself). O(1) via the precomputed Euler-tour
    /// intervals — this sits on the simulator's per-hop unicast routing
    /// path, where the previous parent-pointer walk was O(depth).
    #[inline]
    pub fn is_ancestor_or_self(&self, maybe_ancestor: NodeId, n: NodeId) -> bool {
        let a = maybe_ancestor.index();
        let u = n.index();
        self.tin[a] <= self.tin[u] && self.tin[u] < self.tout[a]
    }

    /// The lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth_of(a) > self.depth_of(b) {
            a = self.parent(a).expect("non-root node has a parent");
        }
        while self.depth_of(b) > self.depth_of(a) {
            b = self.parent(b).expect("non-root node has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root node has a parent");
            b = self.parent(b).expect("non-root node has a parent");
        }
        a
    }

    /// Number of links on the unique tree path between `a` and `b`.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        let l = self.lca(a, b);
        self.depth_of(a) + self.depth_of(b) - 2 * self.depth_of(l)
    }

    /// The nodes on the unique path from `a` to `b`, inclusive of both ends.
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let l = self.lca(a, b);
        let mut up = Vec::new();
        let mut cur = a;
        while cur != l {
            up.push(cur);
            cur = self.parent(cur).expect("non-root node has a parent");
        }
        up.push(l);
        let mut down = Vec::new();
        let mut cur = b;
        while cur != l {
            down.push(cur);
            cur = self.parent(cur).expect("non-root node has a parent");
        }
        down.reverse();
        up.extend(down);
        up
    }

    /// The links crossed on the unique path from `a` to `b`.
    pub fn path_links(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let l = self.lca(a, b);
        let mut links = Vec::new();
        let mut cur = a;
        while cur != l {
            links.push(LinkId(cur));
            cur = self.parent(cur).expect("non-root node has a parent");
        }
        let mut down = Vec::new();
        let mut cur = b;
        while cur != l {
            down.push(LinkId(cur));
            cur = self.parent(cur).expect("non-root node has a parent");
        }
        down.reverse();
        links.extend(down);
        links
    }

    /// The next node on the unique path from `from` towards `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        assert!(from != to, "no next hop from a node to itself");
        if self.is_ancestor_or_self(from, to) {
            *self
                .children(from)
                .iter()
                .find(|&&c| self.is_ancestor_or_self(c, to))
                .expect("descendant reachable through some child")
        } else {
            self.parent(from).expect("non-ancestor has a parent")
        }
    }

    /// The tree neighbours of `n`: its parent (if any) followed by its
    /// children. This is the fan-out used when flooding a multicast packet.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.children(n).len());
        if let Some(p) = self.parent(n) {
            v.push(p);
        }
        v.extend_from_slice(self.children(n));
        v
    }

    /// Graphviz DOT rendering of the tree (sources as doublecircles,
    /// routers as points, receivers as circles), for figures and debugging.
    pub fn to_dot(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("digraph multicast_tree {\n  rankdir=TB;\n");
        for n in self.nodes() {
            let shape = match self.kind(n) {
                NodeKind::Source => "doublecircle",
                NodeKind::Router => "point",
                NodeKind::Receiver => "circle",
            };
            let _ = writeln!(out, "  {} [shape={shape}, label=\"{n}\"];", n.index());
        }
        for link in self.links() {
            let child = link.head();
            let parent = self.parent(child).expect("link head has a parent");
            let _ = writeln!(out, "  {} -> {};", parent.index(), child.index());
        }
        out.push_str("}\n");
        out
    }

    /// Ascii rendering of the tree, one node per line, children indented.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(NodeId::ROOT, 0, &mut out);
        out
    }

    fn render_into(&self, n: NodeId, indent: usize, out: &mut String) {
        use fmt::Write as _;
        let _ = writeln!(
            out,
            "{:indent$}{} ({})",
            "",
            n,
            self.kind(n),
            indent = indent * 2
        );
        for &c in self.children(n) {
            self.render_into(c, indent + 1, out);
        }
    }
}

impl fmt::Display for MulticastTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    /// Builds the small reference tree used across tests:
    ///
    /// ```text
    /// n0 (source)
    ///   n1 (router)
    ///     n2 (receiver)
    ///     n3 (router)
    ///       n4 (receiver)
    ///       n5 (receiver)
    ///   n6 (receiver)
    /// ```
    fn sample() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_router(b.root());
        let _n2 = b.add_receiver(r1);
        let r3 = b.add_router(r1);
        let _n4 = b.add_receiver(r3);
        let _n5 = b.add_receiver(r3);
        let _n6 = b.add_receiver(b.root());
        b.build().unwrap()
    }

    #[test]
    fn structure_queries() {
        let t = sample();
        assert_eq!(t.len(), 7);
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)), &[NodeId(2), NodeId(3)]);
        assert_eq!(t.receivers(), &[NodeId(2), NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.depth_of(NodeId(4)), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn receivers_below_subtrees() {
        let t = sample();
        assert_eq!(t.receivers_below(NodeId(0)), t.receivers());
        assert_eq!(t.receivers_below(NodeId(3)), &[NodeId(4), NodeId(5)]);
        assert_eq!(t.receivers_below(NodeId(2)), &[NodeId(2)]);
        assert_eq!(
            t.receivers_below(NodeId(1)),
            &[NodeId(2), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn lca_and_paths() {
        let t = sample();
        assert_eq!(t.lca(NodeId(4), NodeId(5)), NodeId(3));
        assert_eq!(t.lca(NodeId(2), NodeId(5)), NodeId(1));
        assert_eq!(t.lca(NodeId(6), NodeId(4)), NodeId(0));
        assert_eq!(t.hop_distance(NodeId(4), NodeId(5)), 2);
        assert_eq!(t.hop_distance(NodeId(6), NodeId(4)), 4);
        assert_eq!(t.hop_distance(NodeId(4), NodeId(4)), 0);
        assert_eq!(
            t.path(NodeId(4), NodeId(2)),
            vec![NodeId(4), NodeId(3), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            t.path_links(NodeId(4), NodeId(2)),
            vec![LinkId(NodeId(4)), LinkId(NodeId(3)), LinkId(NodeId(2))]
        );
        assert_eq!(t.path(NodeId(4), NodeId(4)), vec![NodeId(4)]);
        assert!(t.path_links(NodeId(4), NodeId(4)).is_empty());
    }

    #[test]
    fn ancestor_checks() {
        let t = sample();
        assert!(t.is_ancestor_or_self(NodeId(1), NodeId(5)));
        assert!(t.is_ancestor_or_self(NodeId(5), NodeId(5)));
        assert!(!t.is_ancestor_or_self(NodeId(2), NodeId(5)));
    }

    /// The Euler-tour interval check must agree with the definitional
    /// parent-pointer walk for every ordered pair of nodes.
    #[test]
    fn ancestor_intervals_match_parent_walk() {
        let t = sample();
        let walk_ancestor = |a: NodeId, n: NodeId| {
            let mut cur = Some(n);
            while let Some(u) = cur {
                if u == a {
                    return true;
                }
                cur = t.parent(u);
            }
            false
        };
        for a in 0..t.len() {
            for n in 0..t.len() {
                let (a, n) = (NodeId(a as u32), NodeId(n as u32));
                assert_eq!(
                    t.is_ancestor_or_self(a, n),
                    walk_ancestor(a, n),
                    "disagreement for ancestor={a:?} node={n:?}"
                );
            }
        }
    }

    #[test]
    fn neighbors_parent_then_children() {
        let t = sample();
        assert_eq!(
            t.neighbors(NodeId(1)),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        assert_eq!(t.neighbors(NodeId(0)), vec![NodeId(1), NodeId(6)]);
        assert_eq!(t.neighbors(NodeId(5)), vec![NodeId(3)]);
    }

    #[test]
    fn render_mentions_each_node() {
        let t = sample();
        let s = t.to_string();
        for n in t.nodes() {
            assert!(s.contains(&n.to_string()));
        }
    }

    #[test]
    fn dot_export_is_well_formed() {
        let t = sample();
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        // One edge line per link, one node line per node.
        assert_eq!(dot.matches(" -> ").count(), t.link_count());
        assert_eq!(dot.matches("[shape=").count(), t.len());
        assert!(dot.contains("doublecircle"), "source styled distinctly");
    }

    #[test]
    fn rejects_childless_router() {
        let parent = vec![None, Some(NodeId(0)), Some(NodeId(0))];
        let kind = vec![NodeKind::Source, NodeKind::Router, NodeKind::Receiver];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::ChildlessRouter(NodeId(1)))
        );
    }

    #[test]
    fn rejects_receiver_with_children() {
        let parent = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        let kind = vec![NodeKind::Source, NodeKind::Receiver, NodeKind::Receiver];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::ReceiverWithChildren(NodeId(1)))
        );
    }

    #[test]
    fn rejects_cycles_and_forests() {
        // Cycle between 1 and 2.
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        let kind = vec![NodeKind::Source, NodeKind::Router, NodeKind::Receiver];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::NotATree)
        );
        // Unknown parent.
        let parent = vec![None, Some(NodeId(9))];
        let kind = vec![NodeKind::Source, NodeKind::Receiver];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::UnknownParent(NodeId(9)))
        );
    }

    #[test]
    fn rejects_no_receivers() {
        let parent = vec![None];
        let kind = vec![NodeKind::Source];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::NoReceivers)
        );
    }

    #[test]
    fn rejects_second_source() {
        let parent = vec![None, Some(NodeId(0))];
        let kind = vec![NodeKind::Source, NodeKind::Source];
        assert_eq!(
            MulticastTree::from_parents(parent, kind),
            Err(TreeError::NotATree)
        );
    }
}
