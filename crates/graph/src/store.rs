//! The interned triple store.

use pge_tensor::FxHashMap;

/// Index of a product (identified by its title text) in a
/// [`ProductGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProductId(pub u32);

/// Index of an attribute (relation) in a [`ProductGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

/// Index of an attribute value (free text) in a [`ProductGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// One attribute triple `(t, a, v)` (Definition 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Triple {
    pub product: ProductId,
    pub attr: AttrId,
    pub value: ValueId,
}

impl Triple {
    pub fn new(product: ProductId, attr: AttrId, value: ValueId) -> Self {
        Triple {
            product,
            attr,
            value,
        }
    }
}

/// A product graph `G = {T, A, V, O}` with all strings interned.
///
/// Titles and values keep their raw text because the PGE model (and
/// the NLP baselines) consume text, while id-based KGE baselines use
/// the interned ids directly — exactly the contrast the paper draws.
#[derive(Clone, Debug, Default)]
pub struct ProductGraph {
    titles: Vec<String>,
    attributes: Vec<String>,
    values: Vec<String>,
    title_index: FxHashMap<String, ProductId>,
    attr_index: FxHashMap<String, AttrId>,
    value_index: FxHashMap<String, ValueId>,
    triples: Vec<Triple>,
}

impl ProductGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a product title; returns the stable id.
    pub fn intern_product(&mut self, title: &str) -> ProductId {
        if let Some(&id) = self.title_index.get(title) {
            return id;
        }
        let id = ProductId(self.titles.len() as u32);
        self.titles.push(title.to_string());
        self.title_index.insert(title.to_string(), id);
        id
    }

    /// Intern an attribute name.
    pub fn intern_attr(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_index.get(name) {
            return id;
        }
        let id = AttrId(self.attributes.len() as u16);
        self.attributes.push(name.to_string());
        self.attr_index.insert(name.to_string(), id);
        id
    }

    /// Intern an attribute-value string.
    pub fn intern_value(&mut self, value: &str) -> ValueId {
        if let Some(&id) = self.value_index.get(value) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(value.to_string());
        self.value_index.insert(value.to_string(), id);
        id
    }

    /// Record an observed triple (interns nothing; ids must exist).
    pub fn add_triple(&mut self, t: Triple) {
        debug_assert!((t.product.0 as usize) < self.titles.len());
        debug_assert!((t.attr.0 as usize) < self.attributes.len());
        debug_assert!((t.value.0 as usize) < self.values.len());
        self.triples.push(t);
    }

    /// Intern all three components and record the triple.
    pub fn add_fact(&mut self, title: &str, attr: &str, value: &str) -> Triple {
        let t = Triple::new(
            self.intern_product(title),
            self.intern_attr(attr),
            self.intern_value(value),
        );
        self.add_triple(t);
        t
    }

    #[inline]
    pub fn num_products(&self) -> usize {
        self.titles.len()
    }

    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.attributes.len()
    }

    #[inline]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Entities in the KG sense: products + values.
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_products() + self.num_values()
    }

    #[inline]
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    #[inline]
    pub fn title(&self, id: ProductId) -> &str {
        &self.titles[id.0 as usize]
    }

    #[inline]
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attributes[id.0 as usize]
    }

    /// Attribute names in id order.
    pub fn attr_names(&self) -> &[String] {
        &self.attributes
    }

    #[inline]
    pub fn value_text(&self, id: ValueId) -> &str {
        &self.values[id.0 as usize]
    }

    pub fn lookup_product(&self, title: &str) -> Option<ProductId> {
        self.title_index.get(title).copied()
    }

    pub fn lookup_attr(&self, name: &str) -> Option<AttrId> {
        self.attr_index.get(name).copied()
    }

    pub fn lookup_value(&self, value: &str) -> Option<ValueId> {
        self.value_index.get(value).copied()
    }

    /// All value ids observed per attribute (indexed by `AttrId`),
    /// deduplicated in first-seen order. Used by per-attribute
    /// negative sampling and the OpenTag-lite lexicon.
    pub fn values_by_attr(&self) -> Vec<Vec<ValueId>> {
        let mut seen: Vec<pge_tensor::FxHashSet<ValueId>> =
            vec![Default::default(); self.num_attrs()];
        let mut out: Vec<Vec<ValueId>> = vec![Vec::new(); self.num_attrs()];
        for t in &self.triples {
            if seen[t.attr.0 as usize].insert(t.value) {
                out[t.attr.0 as usize].push(t.value);
            }
        }
        out
    }

    /// Triple indices grouped by product (indexed by `ProductId`).
    pub fn triples_by_product(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.num_products()];
        for (i, t) in self.triples.iter().enumerate() {
            out[t.product.0 as usize].push(i);
        }
        out
    }

    /// Triple indices grouped by value (indexed by `ValueId`).
    pub fn triples_by_value(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.num_values()];
        for (i, t) in self.triples.iter().enumerate() {
            out[t.value.0 as usize].push(i);
        }
        out
    }

    /// `(attr, value)` observation counts — the empirical prior used
    /// by the CKRL-style baseline.
    pub fn attr_value_counts(&self) -> FxHashMap<(AttrId, ValueId), u32> {
        let mut m: FxHashMap<(AttrId, ValueId), u32> = FxHashMap::default();
        for t in &self.triples {
            *m.entry((t.attr, t.value)).or_insert(0) += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProductGraph {
        let mut g = ProductGraph::new();
        g.add_fact("tortilla chips spicy queso", "flavor", "spicy queso");
        g.add_fact(
            "tortilla chips spicy queso",
            "ingredient",
            "chipotle pepper",
        );
        g.add_fact("bean chips spicy", "flavor", "spicy");
        g.add_fact("bean chips spicy", "ingredient", "chipotle pepper");
        g
    }

    #[test]
    fn interning_is_stable() {
        let mut g = ProductGraph::new();
        let a = g.intern_product("x");
        let b = g.intern_product("x");
        let c = g.intern_product("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.title(a), "x");
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.num_products(), 2);
        assert_eq!(g.num_attrs(), 2);
        assert_eq!(g.num_values(), 3);
        assert_eq!(g.num_entities(), 5);
        assert_eq!(g.num_triples(), 4);
    }

    #[test]
    fn lookup_round_trip() {
        let g = sample();
        let p = g.lookup_product("bean chips spicy").unwrap();
        assert_eq!(g.title(p), "bean chips spicy");
        let v = g.lookup_value("chipotle pepper").unwrap();
        assert_eq!(g.value_text(v), "chipotle pepper");
        assert!(g.lookup_attr("scent").is_none());
    }

    #[test]
    fn values_by_attr_groups_and_dedups() {
        let g = sample();
        let flavor = g.lookup_attr("flavor").unwrap();
        let ingr = g.lookup_attr("ingredient").unwrap();
        let by_attr = g.values_by_attr();
        assert_eq!(by_attr[flavor.0 as usize].len(), 2);
        // "chipotle pepper" appears twice but is listed once.
        assert_eq!(by_attr[ingr.0 as usize].len(), 1);
    }

    #[test]
    fn adjacency_indices() {
        let g = sample();
        let by_p = g.triples_by_product();
        assert_eq!(by_p.len(), 2);
        assert_eq!(by_p[0], vec![0, 1]);
        let by_v = g.triples_by_value();
        let pepper = g.lookup_value("chipotle pepper").unwrap();
        assert_eq!(by_v[pepper.0 as usize], vec![1, 3]);
    }

    #[test]
    fn attr_value_counts_counts_duplicates() {
        let g = sample();
        let ingr = g.lookup_attr("ingredient").unwrap();
        let pepper = g.lookup_value("chipotle pepper").unwrap();
        let m = g.attr_value_counts();
        assert_eq!(m[&(ingr, pepper)], 2);
    }
}
