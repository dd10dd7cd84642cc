import math
import traceback

import numpy as np
import pytest

from emprops import descriptors as d
from emprops.errors import MissingDensity, MultiFragment, UnknownBondType, ZeroDenominator
from emprops.molgraph import molecular_formula, parse_smiles
from emprops.molgraph.elements import PRINCIPAL_QUANTUM, VALENCE_ELECTRONS

from conftest import CORPUS, NITROGLYCERIN, RDX, SPELLING_PAIRS, TNT


def counts(smiles):
    return molecular_formula(parse_smiles(smiles))


def oracle_oxygen_balance(n_c, n_h, n_o, n_atoms):
    return 100.0 / n_atoms * (n_o - 2 * n_c - n_h / 2)


def oracle_gas_ratio(a, b, c, o):
    return (56 * c + 88 * o - 8 * b) / (48 * a + 4 * b + 56 * c + 64 * o)


class TestOxygenBalance:
    def test_tnt(self):
        assert d.oxygen_balance(counts(TNT)) == pytest.approx(-50.0, abs=1e-12)

    def test_nitroglycerin(self):
        assert d.oxygen_balance(counts(NITROGLYCERIN)) == pytest.approx(2.5, abs=1e-12)

    def test_dinitrogen_all_terms_vanish(self):
        assert d.oxygen_balance(counts("N#N")) == 0.0

    def test_matches_formula_oracle_over_corpus(self):
        for smiles in CORPUS.values():
            f = counts(smiles)
            expected = oracle_oxygen_balance(f.n_C, f.n_H, f.n_O, f.n_atoms)
            assert d.oxygen_balance(f) == pytest.approx(expected, abs=1e-12)


class TestGasProductRatio:
    def test_rdx(self):
        assert d.gas_product_ratio(counts(RDX)) == pytest.approx(816 / 888, abs=1e-12)

    def test_tnt(self):
        assert d.gas_product_ratio(counts(TNT)) == pytest.approx(656 / 908, abs=1e-12)

    def test_benzene_goes_negative_unclamped(self):
        assert d.gas_product_ratio(counts("c1ccccc1")) == pytest.approx(-48 / 312, abs=1e-12)

    def test_zero_denominator(self):
        from emprops.molgraph.graph import ElementCounts

        with pytest.raises(ZeroDenominator):
            d.gas_product_ratio(ElementCounts(n_Cl=2))

    def test_matches_formula_oracle_over_corpus(self):
        for smiles in CORPUS.values():
            f = counts(smiles)
            expected = oracle_gas_ratio(f.n_C, f.n_H, f.n_N, f.n_O)
            assert d.gas_product_ratio(f) == pytest.approx(expected, abs=1e-12)


class TestAtomCounts:
    def test_rdx(self):
        feats = d.atom_count_features(counts(RDX))
        assert feats == {"n_to_c_ratio": 2.0, "hydrogen_count": 6.0, "fluorine_count": 0.0}

    def test_carbon_free_uses_floored_denominator(self):
        assert d.atom_count_features(counts("NN"))["n_to_c_ratio"] == 2.0

    def test_methane(self):
        feats = d.atom_count_features(counts("C"))
        assert feats == {"n_to_c_ratio": 0.0, "hydrogen_count": 4.0, "fluorine_count": 0.0}


class TestBondVocabulary:
    def test_single_bond_type(self):
        vocab = d.fit_bond_vocabulary([parse_smiles("O=C=O")])
        assert vocab == [("C", "O", "double")]

    def test_hydrogen_pseudo_bonds(self):
        vocab = d.fit_bond_vocabulary([parse_smiles("C"), parse_smiles("O=C=O")])
        assert vocab == [("C", "H", "single"), ("C", "O", "double")]

    def test_idempotent(self):
        corpus = [parse_smiles(s) for s in CORPUS.values()]
        assert d.fit_bond_vocabulary(corpus) == d.fit_bond_vocabulary(corpus)

    def test_sum_over_bonds_counts(self):
        assert d.sum_over_bonds(d.perceive(parse_smiles("O=C=O")).bond_keys, {("C", "O", "double"): 0}) == [2.0]
        assert d.sum_over_bonds(d.perceive(parse_smiles("C")).bond_keys, {("C", "H", "single"): 0}) == [4.0]

    def test_unknown_bond_type(self):
        with pytest.raises(UnknownBondType):
            d.sum_over_bonds(d.perceive(parse_smiles("c1ccccc1")).bond_keys, {("C", "H", "single"): 0})


class TestFunctionalGroups:
    def test_tnt(self):
        groups = d.functional_group_counts(parse_smiles(TNT))
        assert groups["nitro"] == 3
        assert groups["amino_primary"] == 0

    def test_rdx(self):
        groups = d.functional_group_counts(parse_smiles(RDX))
        assert groups["nitramine"] == 3
        assert groups["nitro"] == 0

    def test_group_payload_never_exceeds_formula(self):
        # weights count each group's exclusive N/O payload atoms
        n_weight = {"nitro": 1, "nitramine": 1, "nitrate_ester": 1, "azide": 2,
                    "amino_primary": 1, "hydroxyl": 0, "carbonyl": 0, "cyano": 1,
                    "n_oxide": 0}
        o_weight = {"nitro": 2, "nitramine": 2, "nitrate_ester": 2, "azide": 0,
                    "amino_primary": 0, "hydroxyl": 1, "carbonyl": 1, "cyano": 0,
                    "n_oxide": 1}
        for smiles in CORPUS.values():
            g = parse_smiles(smiles)
            f = molecular_formula(g)
            groups = d.functional_group_counts(g)
            assert sum(groups[k] * n_weight[k] for k in groups) <= f.n_N, smiles
            assert sum(groups[k] * o_weight[k] for k in groups) <= f.n_O, smiles


class TestRingCounts:
    def test_benzene(self):
        feats = d.ring_count_features(parse_smiles("c1ccccc1"))
        assert feats["ring_size_6"] == 1
        assert feats["rings_aromatic"] == 1
        assert feats["rings_hetero"] == 0

    def test_rdx(self):
        feats = d.ring_count_features(parse_smiles(RDX))
        assert feats["ring_size_6"] == 1
        assert feats["rings_aliphatic"] == 1
        assert feats["rings_hetero"] == 1

    def test_acyclic_all_zero(self):
        feats = d.ring_count_features(parse_smiles("CCCC"))
        assert all(v == 0 for v in feats.values())


class TestTopology:
    def test_butane_single_rotatable(self):
        assert d.topology_features(parse_smiles("CCCC"))["rotatable_bonds"] == 1.0

    def test_water_donor_acceptor(self):
        feats = d.topology_features(parse_smiles("O"))
        assert feats["hbond_donors"] == 1.0
        assert feats["hbond_acceptors"] == 1.0

    def test_benzene(self):
        feats = d.topology_features(parse_smiles("c1ccccc1"))
        assert feats["aromatic_atoms"] == 6.0
        assert feats["aromatic_bonds"] == 6.0
        assert feats["rotatable_bonds"] == 0.0


class TestEstate:
    def test_ethane(self):
        assert d.estate_vector(parse_smiles("CC"))["estate_C"] == pytest.approx(4.0, abs=1e-12)

    def test_isolated_heavy_atom_is_zero(self):
        assert d.estate_vector(parse_smiles("C"))["estate_C"] == 0.0

    def test_benzene_symmetry(self):
        # assert that the per-element sum is 6x the single-atom value by
        # computing one atom by hand: delta=2, delta_v=4-1=3, I=(3+1)/2=2
        sums = d.estate_vector(parse_smiles("c1ccccc1"))
        assert sums["estate_C"] == pytest.approx(12.0, abs=1e-9)

    def test_conservation_over_corpus(self):
        # perturbations cancel pairwise, so sum(S) equals sum(I)
        for smiles in CORPUS.values():
            g = parse_smiles(smiles)
            total_s = math.fsum(d.estate_vector(g).values())
            total_i = 0.0
            for atom in g.atoms:
                delta = g.heavy_degree(atom.index)
                if delta == 0:
                    continue
                delta_v = VALENCE_ELECTRONS[atom.element] - atom.implicit_h
                scale = (2.0 / PRINCIPAL_QUANTUM[atom.element]) ** 2
                total_i += (scale * delta_v + 1.0) / delta
            assert total_s == pytest.approx(total_i, abs=1e-9), smiles


class TestVdwVolume:
    def test_methane(self):
        assert d.vdw_volume(parse_smiles("C")) == pytest.approx(25.86, abs=1e-9)

    def test_dinitrogen(self):
        assert d.vdw_volume(parse_smiles("N#N")) == pytest.approx(25.28, abs=1e-9)

    def test_additive_over_fragments(self):
        combined = d.vdw_volume(parse_smiles("CC.O"))
        assert combined == pytest.approx(
            d.vdw_volume(parse_smiles("CC")) + d.vdw_volume(parse_smiles("O")), abs=1e-9
        )


class TestAcidBase:
    def test_acetic_acid(self):
        assert d.acid_base_counts(parse_smiles("CC(=O)O")) == {"acidic_groups": 1, "basic_groups": 0}

    def test_methylamine(self):
        assert d.acid_base_counts(parse_smiles("CN"))["basic_groups"] == 1

    def test_benzene(self):
        assert d.acid_base_counts(parse_smiles("c1ccccc1")) == {"acidic_groups": 0, "basic_groups": 0}

    def test_phenol_is_acidic(self):
        assert d.acid_base_counts(parse_smiles("Oc1ccccc1"))["acidic_groups"] == 1

    def test_amide_not_basic(self):
        assert d.acid_base_counts(parse_smiles("CC(=O)N"))["basic_groups"] == 0

    def test_nitramine_nitrogen_not_basic(self):
        assert d.acid_base_counts(parse_smiles("CN[N+](=O)[O-]"))["basic_groups"] == 0


class TestSchema:
    def test_deterministic(self):
        corpus = [parse_smiles(s) for s in CORPUS.values()]
        assert d.fit_schema(corpus, False) == d.fit_schema(corpus, False)

    def test_permutation_invariant(self):
        corpus = [parse_smiles(s) for s in CORPUS.values()]
        assert d.fit_schema(corpus, True) == d.fit_schema(list(reversed(corpus)), True)

    def test_methane_only_corpus_length(self):
        schema = d.fit_schema([parse_smiles("C")], include_density=False)
        assert len(schema) == len(d.FIXED_BLOCK_NAMES) + 1

    def test_density_toggles_length_by_one(self):
        corpus = [parse_smiles("C")]
        with_density = d.fit_schema(corpus, include_density=True)
        without = d.fit_schema(corpus, include_density=False)
        assert len(with_density) == len(without) + 1
        assert with_density.names[-1] == "density"

    def test_manifest_round_trip(self):
        schema = d.fit_schema([parse_smiles(s) for s in CORPUS.values()], True)
        assert d.FeatureSchema.from_manifest(schema.manifest()) == schema

    def test_perceptions_fit_the_schema_of_their_graphs(self):
        graphs = [parse_smiles(s) for s in [*CORPUS.values(), "CC.O", "FF"]]
        assert d.fit_schema([d.perceive(g) for g in graphs], False) == d.fit_schema(graphs, False)


class TestFeaturize:
    def test_perceive_keeps_what_no_schema_changes(self):
        whole = d.perceive(parse_smiles("CC"))
        assert whole.fixed == d._fixed_block(parse_smiles("CC"))
        assert whole.bond_keys == {("C", "C", "single"): 1, ("C", "H", "single"): 6}
        apart = d.perceive(parse_smiles("CC.O"))
        assert apart.fixed is None
        assert apart.bond_keys == {("C", "C", "single"): 1, ("C", "H", "single"): 6,
                                   ("H", "O", "single"): 2}

    def test_row_checks_in_order(self):
        """MultiFragment, MissingDensity, the fixed block's ZeroDenominator
        (F2 has no C, H, N or O), then UnknownBondType."""
        schema = d.fit_schema([parse_smiles("C")], include_density=False)
        with pytest.raises(MultiFragment):
            d.perceive(parse_smiles("CC.O")).row(schema, density=1.0)
        with pytest.raises(MissingDensity):
            d.perceive(parse_smiles("FF")).row(schema, density=1.0)
        fluorine = d.perceive(parse_smiles("FF"))
        depths = []
        for _ in range(2):
            with pytest.raises(ZeroDenominator, match="^gas product ratio") as raised:
                fluorine.row(schema)
            depths.append(len(list(traceback.walk_tb(raised.tb))))
        assert depths[0] == depths[1]  # the stored error's traceback does not grow
        with pytest.raises(UnknownBondType):
            d.perceive(parse_smiles("CO")).row(schema)

    def test_density_is_last_component(self):
        g = parse_smiles(TNT)
        schema = d.fit_schema([g], include_density=True)
        vector = d.featurize(g, schema, density=1.65)
        assert vector[-1] == 1.65

    def test_multi_fragment_rejected(self):
        g = parse_smiles("C.C")
        schema = d.fit_schema([parse_smiles("C")], include_density=False)
        with pytest.raises(MultiFragment):
            d.featurize(g, schema)

    def test_missing_density(self):
        g = parse_smiles("C")
        schema = d.fit_schema([g], include_density=True)
        with pytest.raises(MissingDensity):
            d.featurize(g, schema)

    def test_unexpected_density(self):
        g = parse_smiles("C")
        schema = d.fit_schema([g], include_density=False)
        with pytest.raises(MissingDensity):
            d.featurize(g, schema, density=1.0)

    def test_all_finite_over_corpus(self):
        graphs = [parse_smiles(s) for s in CORPUS.values()]
        schema = d.fit_schema(graphs, include_density=False)
        for g in graphs:
            assert np.all(np.isfinite(d.featurize(g, schema)))


class TestRepresentationInvariance:
    def test_spelling_pairs_identical_vectors(self):
        graphs = [(parse_smiles(a), parse_smiles(b)) for a, b in SPELLING_PAIRS]
        corpus = [g for pair in graphs for g in pair]
        schema = d.fit_schema(corpus, include_density=False)
        for (sa, sb), (ga, gb) in zip(SPELLING_PAIRS, graphs):
            va = d.featurize(ga, schema)
            vb = d.featurize(gb, schema)
            assert np.array_equal(va, vb), (sa, sb)
