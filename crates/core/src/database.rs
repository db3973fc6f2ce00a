//! Databases `D = (A, R_1, ..., R_l)` and vocabularies (schemas).

use crate::error::CoreError;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::universe::Universe;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A vocabulary σ: relation names with arities, in deterministic order.
///
/// The paper fixes "an arbitrary but fixed finite vocabulary σ"; programs are
/// classified against it (database vs. non-database relations) and the
/// operator Θ maps tuples of relations whose arities match it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    arities: BTreeMap<String, usize>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a schema from `(name, arity)` pairs.
    ///
    /// # Errors
    /// Fails if the same name appears with two different arities.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Result<Self> {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.declare(name, arity)?;
        }
        Ok(s)
    }

    /// Declares a relation; redeclaring with the same arity is a no-op.
    ///
    /// # Errors
    /// Fails with [`CoreError::ConflictingArity`] on an arity conflict.
    pub fn declare(&mut self, name: &str, arity: usize) -> Result<()> {
        match self.arities.get(name) {
            Some(&a) if a != arity => Err(CoreError::ConflictingArity {
                relation: name.to_owned(),
                existing: a,
                requested: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.arities.insert(name.to_owned(), arity);
                Ok(())
            }
        }
    }

    /// Arity of `name`, if declared.
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.arities.get(name).copied()
    }

    /// Whether `name` is declared.
    pub fn contains(&self, name: &str) -> bool {
        self.arities.contains_key(name)
    }

    /// Iterates `(name, arity)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.arities.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|(n, a)| format!("{n}/{a}")).collect();
        write!(f, "({})", parts.join(", "))
    }
}

/// A finite database `D = (A, R_1, ..., R_l)`: a universe plus named
/// relations over it.
///
/// Relations are stored in a `BTreeMap` so iteration order (and therefore all
/// derived output: displays, SAT variable numbering, experiment tables) is
/// deterministic.
///
/// The universe sits behind an [`Arc`]: it is usually fixed once the
/// database is loaded, so clones share it and only a clone that interns a
/// new constant pays for a copy ([`Arc::make_mut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    universe: Arc<Universe>,
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates a database with an empty universe and no relations.
    pub fn new() -> Self {
        Database::with_universe(Universe::new())
    }

    /// Creates a database over the given universe.
    pub fn with_universe(universe: Universe) -> Self {
        Database {
            universe: Arc::new(universe),
            relations: BTreeMap::new(),
        }
    }

    /// The universe `A`.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The universe as a shared handle: keeps the constant names readable
    /// without holding on to the database.
    pub fn shared_universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Mutable access to the universe (for interning additional constants).
    /// Copies the universe first if another database clone shares it.
    pub fn universe_mut(&mut self) -> &mut Universe {
        Arc::make_mut(&mut self.universe)
    }

    /// `|A|`.
    pub fn universe_size(&self) -> usize {
        self.universe.len()
    }

    /// Declares an empty relation if absent; errors on arity conflict.
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<()> {
        match self.relations.get(name) {
            Some(r) if r.arity() != arity => Err(CoreError::ConflictingArity {
                relation: name.to_owned(),
                existing: r.arity(),
                requested: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(name.to_owned(), Relation::new(arity));
                Ok(())
            }
        }
    }

    /// Inserts (replaces) a whole relation.
    pub fn set_relation(&mut self, name: &str, rel: Relation) {
        self.relations.insert(name.to_owned(), rel);
    }

    /// Gets a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Gets a relation by name, erroring if absent.
    ///
    /// # Errors
    /// Fails with [`CoreError::UnknownRelation`].
    pub fn relation_required(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))
    }

    /// Mutable relation access.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Whether the database has a relation called `name`.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Inserts a fact, declaring the relation on first use.
    ///
    /// Constants in the tuple must already belong to the universe.
    ///
    /// # Errors
    /// Fails on arity mismatch with an existing relation or on a foreign
    /// constant.
    pub fn insert_fact(&mut self, name: &str, tuple: Tuple) -> Result<bool> {
        for &c in tuple.items() {
            if !self.universe.contains(c) {
                return Err(CoreError::UnknownConstant(c.id()));
            }
        }
        match self.relations.get_mut(name) {
            Some(r) => {
                if r.arity() != tuple.arity() {
                    return Err(CoreError::ArityMismatch {
                        relation: name.to_owned(),
                        expected: r.arity(),
                        found: tuple.arity(),
                    });
                }
                Ok(r.insert(tuple))
            }
            None => {
                let mut r = Relation::new(tuple.arity());
                r.insert(tuple);
                self.relations.insert(name.to_owned(), r);
                Ok(true)
            }
        }
    }

    /// Convenience: interns the named constants and inserts the fact.
    ///
    /// # Errors
    /// Fails on arity mismatch with an existing relation.
    pub fn insert_named_fact(&mut self, name: &str, consts: &[&str]) -> Result<bool> {
        let tuple: Tuple = consts
            .iter()
            .map(|s| match self.universe.lookup(s) {
                Some(c) => c,
                None => self.universe_mut().intern(s),
            })
            .collect::<Vec<_>>()
            .into();
        self.insert_fact(name, tuple)
    }

    /// Iterates `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// The schema induced by the stored relations.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (n, r) in self.iter() {
            s.declare(n, r.arity()).expect("names are unique in a map");
        }
        s
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Renders one relation with constant names from the universe.
    pub fn display_relation(&self, name: &str) -> String {
        match self.relation(name) {
            None => format!("{name} = <absent>"),
            Some(r) => {
                let rows: Vec<String> = r
                    .sorted()
                    .iter()
                    .map(|t| t.display_with(|c| self.universe.display(c)))
                    .collect();
                format!("{name} = {{{}}}", rows.join(", "))
            }
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "universe ({}): {}", self.universe.len(), self.universe)?;
        for (name, _) in self.iter() {
            writeln!(f, "{}", self.display_relation(name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Const;

    #[test]
    fn schema_declare_and_conflict() {
        let mut s = Schema::new();
        s.declare("E", 2).unwrap();
        s.declare("E", 2).unwrap(); // idempotent
        assert!(matches!(
            s.declare("E", 3),
            Err(CoreError::ConflictingArity { .. })
        ));
        assert_eq!(s.arity("E"), Some(2));
        assert_eq!(s.arity("T"), None);
    }

    #[test]
    fn schema_from_pairs_and_display() {
        let s = Schema::from_pairs([("E", 2), ("V", 1)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "(E/2, V/1)");
        assert!(Schema::from_pairs([("E", 2), ("E", 1)]).is_err());
    }

    #[test]
    fn insert_named_facts() {
        let mut db = Database::new();
        assert!(db.insert_named_fact("E", &["a", "b"]).unwrap());
        assert!(!db.insert_named_fact("E", &["a", "b"]).unwrap());
        assert!(db.insert_named_fact("E", &["b", "c"]).unwrap());
        assert_eq!(db.universe_size(), 3);
        assert_eq!(db.relation("E").unwrap().len(), 2);
    }

    #[test]
    fn insert_fact_arity_mismatch() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        let a = db.universe_mut().intern("a");
        let err = db.insert_fact("E", Tuple::from([a])).unwrap_err();
        assert!(matches!(err, CoreError::ArityMismatch { .. }));
    }

    #[test]
    fn insert_fact_foreign_constant() {
        let mut db = Database::with_universe(Universe::range(2));
        let err = db.insert_fact("P", Tuple::from([Const(9)])).unwrap_err();
        assert_eq!(err, CoreError::UnknownConstant(9));
    }

    #[test]
    fn relation_required_error() {
        let db = Database::new();
        assert!(matches!(
            db.relation_required("missing"),
            Err(CoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn declare_relation_conflicts() {
        let mut db = Database::new();
        db.declare_relation("T", 1).unwrap();
        db.declare_relation("T", 1).unwrap();
        assert!(db.declare_relation("T", 2).is_err());
        assert!(db.relation("T").unwrap().is_empty());
    }

    #[test]
    fn schema_of_database() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        db.declare_relation("V", 1).unwrap();
        let s = db.schema();
        assert_eq!(s.arity("E"), Some(2));
        assert_eq!(s.arity("V"), Some(1));
    }

    #[test]
    fn display_relation_with_names() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        db.insert_named_fact("E", &["b", "a"]).unwrap();
        let s = db.display_relation("E");
        assert_eq!(s, "E = {(a,b), (b,a)}");
        assert_eq!(db.display_relation("Z"), "Z = <absent>");
    }

    #[test]
    fn clones_share_the_universe_until_one_interns() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        let mut copy = db.clone();
        assert!(Arc::ptr_eq(db.shared_universe(), copy.shared_universe()));
        // Facts over known constants keep sharing it.
        copy.insert_named_fact("E", &["b", "a"]).unwrap();
        assert!(Arc::ptr_eq(db.shared_universe(), copy.shared_universe()));
        // Interning on the clone copies first: the original never changes.
        copy.insert_named_fact("E", &["b", "c"]).unwrap();
        copy.universe_mut().intern("d");
        assert!(!Arc::ptr_eq(db.shared_universe(), copy.shared_universe()));
        assert_eq!(db.universe_size(), 2);
        assert_eq!(db.universe().lookup("c"), None);
        assert_eq!(copy.universe_size(), 4);
        assert_eq!(db.relation("E").unwrap().len(), 1);
    }

    #[test]
    fn total_tuples() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        db.insert_named_fact("V", &["a"]).unwrap();
        db.insert_named_fact("V", &["b"]).unwrap();
        assert_eq!(db.total_tuples(), 3);
    }
}
