//! A study written one write at a time: the rows of a [`StudySnapshot`] committed as
//! separate writes (the ontology, each registration, each annotation through the
//! builder), where `from_study_snapshot` commits them as one batch.  Both must build
//! the same system.

use std::sync::Arc;

use graphitti::core::{ObjectId, ReferentId, StudySnapshot, WriteSystem};

/// Write `study` into the empty `system`, each row its own commit.
pub fn one_write_at_a_time<S: WriteSystem>(system: &mut S, study: &StudySnapshot) {
    let ontology = study.ontology.clone();
    system.ontology_edit(|o| *o = ontology.clone());
    for object in &study.objects {
        let payload = Arc::from(object.payload.as_slice());
        let (name, metadata) = (object.name.clone(), object.metadata.clone());
        system
            .register_object(object.data_type, name, metadata, payload, object.domain.clone())
            .expect("a captured registration registers");
    }
    let mut created = 0;
    for annotation in &study.annotations {
        let mut builder = system.annotate();
        for (element, value) in annotation.content.fields() {
            builder = builder.field(element, value);
        }
        for (tag, value) in annotation.content.user_tags() {
            builder = builder.user_tag(tag, value);
        }
        for &index in &annotation.referents {
            builder = if index < created {
                builder.mark_existing(ReferentId(index as u64))
            } else {
                created += 1;
                let referent = &study.referents[index];
                builder.mark(ObjectId(referent.object as u64), referent.marker.clone())
            };
        }
        for &term in &annotation.terms {
            builder = builder.cite_term(term);
        }
        builder.commit().expect("a captured annotation commits");
    }
}
