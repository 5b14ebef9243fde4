//! Regression tests of the planarity-gated one-shot entry points
//! (`Psi::{decide_in, find_one_in, list_all_in, vertex_connectivity_of}` and
//! `Psi::open`). They replaced the former `auto` free functions, and the tests
//! keep the `auto::tests` module path they have always been reported under.

mod tests {
    use crate::connectivity::{vertex_connectivity, ConnectivityMode};
    use crate::pattern::{verify_occurrence, Pattern};
    use crate::psi::{Psi, PsiError};
    use psi_graph::generators as gg;
    use psi_graph::CsrGraph;
    use psi_planar::generators as pg;

    fn expect_non_planar<T: std::fmt::Debug>(result: Result<T, PsiError>, g: &CsrGraph) {
        match result {
            Err(PsiError::NonPlanar(w)) => assert!(w.verify(g)),
            other => panic!("expected NonPlanar, got {other:?}"),
        }
    }

    #[test]
    fn auto_decide_on_planar_targets() {
        let g = gg::triangulated_grid(12, 12);
        assert!(Psi::decide_in(&Pattern::cycle(4), &g).unwrap());
        assert!(!Psi::decide_in(&Pattern::clique(5), &g).unwrap());
        let occ = Psi::find_one_in(&Pattern::triangle(), &g).unwrap().unwrap();
        assert!(verify_occurrence(&Pattern::triangle(), &g, &occ));
    }

    #[test]
    fn auto_rejects_non_planar_targets_with_certificate() {
        let g = gg::complete(5);
        expect_non_planar(Psi::decide_in(&Pattern::triangle(), &g), &g);
        expect_non_planar(
            Psi::vertex_connectivity_of(&g, ConnectivityMode::WholeGraph, 1),
            &g,
        );
    }

    #[test]
    fn auto_connectivity_matches_native_embeddings() {
        // The LR engine's embedding differs from the generator-native one, but the
        // connectivity verdict (Lemma 5.1) is embedding-independent.
        for (embedded, expected) in [
            (pg::wheel_embedded(8), 3),
            (pg::octahedron(), 4),
            (pg::grid_embedded(4, 4), 2),
            (pg::cycle_embedded(9), 2),
        ] {
            let native = vertex_connectivity(&embedded, ConnectivityMode::WholeGraph, 1);
            let bare =
                Psi::vertex_connectivity_of(&embedded.graph, ConnectivityMode::WholeGraph, 1)
                    .expect("planar graph rejected");
            assert_eq!(native.connectivity, expected);
            assert_eq!(bare.connectivity, expected);
        }
    }

    #[test]
    fn auto_connectivity_handles_low_connectivity_inputs() {
        // Disconnected and 1-connected bare graphs (no native embedding needed).
        let two = gg::disjoint_union(&[&gg::cycle(3), &gg::cycle(3)]);
        for (target, expected) in [(two, 0), (gg::path(5), 1)] {
            assert_eq!(
                Psi::vertex_connectivity_of(&target, ConnectivityMode::WholeGraph, 1)
                    .unwrap()
                    .connectivity,
                expected
            );
        }
    }

    #[test]
    fn list_all_auto_gates_on_planarity_and_reports_completeness() {
        let g = gg::triangulated_grid(5, 5);
        let outcome = Psi::list_all_in(&Pattern::triangle(), &g).unwrap();
        assert!(!outcome.occurrences.is_empty());
        assert!(
            outcome.complete,
            "small instance must enumerate exhaustively"
        );
        assert!(outcome.iterations > 0);
        let k33 = gg::complete_bipartite(3, 3);
        expect_non_planar(Psi::list_all_in(&Pattern::triangle(), &k33), &k33);
    }

    #[test]
    fn build_index_auto_gates_on_planarity() {
        let g = gg::triangulated_grid(8, 8);
        let mut psi = Psi::open(&g).unwrap();
        assert!(psi.decide(&Pattern::cycle(4)).unwrap());
        let k5 = gg::complete(5);
        expect_non_planar(Psi::open(&k5), &k5);
    }
}
